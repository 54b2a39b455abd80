let bits = 63

type t = int array

let create n = Array.make ((n + bits - 1) / bits) 0
let copy = Array.copy
let mem t i = (t.(i / bits) lsr (i mod bits)) land 1 = 1
let add t i = t.(i / bits) <- t.(i / bits) lor (1 lsl (i mod bits))
let remove t i = t.(i / bits) <- t.(i / bits) land lnot (1 lsl (i mod bits))
let clear t = Array.fill t 0 (Array.length t) 0

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
