let bits = 63

type t = int array

let create n = Array.make ((n + bits - 1) / bits) 0
let copy = Array.copy
let mem t i = (t.(i / bits) lsr (i mod bits)) land 1 = 1
let add t i = t.(i / bits) <- t.(i / bits) lor (1 lsl (i mod bits))
let remove t i = t.(i / bits) <- t.(i / bits) land lnot (1 lsl (i mod bits))
let clear t = Array.fill t 0 (Array.length t) 0

let widen t n =
  let words = (n + bits - 1) / bits in
  if words <= Array.length t then t
  else begin
    let t' = Array.make words 0 in
    Array.blit t 0 t' 0 (Array.length t);
    t'
  end

let iter f t =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for b = 0 to bits - 1 do
          if (word lsr b) land 1 = 1 then f ((w * bits) + b)
        done)
    t

let union_into ~dst s =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor s.(w)
  done

let flow_into ~dst ~gen ~kill s =
  let changed = ref false in
  for w = 0 to Array.length dst - 1 do
    let v = gen.(w) lor (s.(w) land lnot kill.(w)) in
    if v <> dst.(w) then begin
      dst.(w) <- v;
      changed := true
    end
  done;
  !changed
