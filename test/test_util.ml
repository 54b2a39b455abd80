open Gis_util

let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let test_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get 0" 0 (Vec.get v 0);
  check_int "get 99" 198 (Vec.get v 99);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index 100 out of bounds [0,100)")
    (fun () -> ignore (Vec.get v 100))

let test_pop_last () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "last" (Some 3) (Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  check_list "after pop" [ 1; 2 ] (Vec.to_list v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let test_insert_remove () =
  let v = Vec.of_list [ 1; 2; 4 ] in
  Vec.insert v 2 3;
  check_list "insert middle" [ 1; 2; 3; 4 ] (Vec.to_list v);
  Vec.insert v 0 0;
  check_list "insert front" [ 0; 1; 2; 3; 4 ] (Vec.to_list v);
  Vec.insert v 5 5;
  check_list "insert end" [ 0; 1; 2; 3; 4; 5 ] (Vec.to_list v);
  check_int "remove" 3 (Vec.remove v 3);
  check_list "after remove" [ 0; 1; 2; 4; 5 ] (Vec.to_list v)

let test_iterators () =
  let v = Vec.of_list [ 5; 6; 7 ] in
  let sum = Vec.fold_left ( + ) 0 v in
  check_int "fold" 18 sum;
  let collected = ref [] in
  Vec.iteri (fun i x -> collected := (i, x) :: !collected) v;
  Alcotest.(check (list (pair int int)))
    "iteri" [ (2, 7); (1, 6); (0, 5) ] !collected;
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 6) v);
  Alcotest.(check bool) "for_all" false (Vec.for_all (fun x -> x > 5) v);
  Alcotest.(check (option int)) "find" (Some 6) (Vec.find_opt (fun x -> x mod 2 = 0) v);
  Alcotest.(check (option int)) "find_index" (Some 1) (Vec.find_index (fun x -> x = 6) v)

let test_filter_map_copy () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5; 6 ] in
  let w = Vec.copy v in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  check_list "filtered" [ 2; 4; 6 ] (Vec.to_list v);
  check_list "copy untouched" [ 1; 2; 3; 4; 5; 6 ] (Vec.to_list w);
  let doubled = Vec.map (fun x -> x * 2) v in
  check_list "map" [ 4; 8; 12 ] (Vec.to_list doubled);
  Vec.append v doubled;
  check_list "append" [ 2; 4; 6; 4; 8; 12 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let test_set_in_place () =
  let v = Vec.of_array [| 9; 8; 7 |] in
  Vec.set v 1 42;
  check_list "set" [ 9; 42; 7 ] (Vec.to_list v)

let test_fix_iterate () =
  let x = ref 0 in
  let rounds = Fix.iterate ~analysis:"test" (fun () -> incr x; !x < 5) in
  check_int "rounds" 5 rounds;
  check_int "final" 5 !x;
  Alcotest.check_raises "divergence guard"
    (Fix.Did_not_converge { analysis = "test"; steps = 10 }) (fun () ->
      ignore (Fix.iterate ~analysis:"test" ~max_rounds:10 (fun () -> true)))

let test_worklist () =
  let open Fix.Worklist in
  let w = create 8 in
  add w ~key:5 1;
  add w ~key:2 3;
  add w ~key:7 1;
  (* already present: keeps key 5 *)
  add w ~key:2 6;
  Alcotest.(check (option (pair int int))) "smallest key" (Some (2, 3)) (pop w);
  Alcotest.(check (option (pair int int))) "tie by element" (Some (2, 6)) (pop w);
  Alcotest.(check (option (pair int int))) "first key kept" (Some (5, 1)) (pop w);
  Alcotest.(check bool) "empty" true (is_empty w);
  Alcotest.(check (option (pair int int))) "pop empty" None (pop w);
  (* Re-adding after pop works, with the new key. *)
  add w ~key:9 1;
  Alcotest.(check (option (pair int int))) "re-add" (Some (9, 1)) (pop w)

let test_worklist_sweeps () =
  let open Fix.Worklist in
  (* Position 2 in sweep 0: a later position stays in this sweep, an
     earlier one (or itself) goes to the next. *)
  check_int "later" 4 (sweep_key ~width:5 ~key:2 4);
  check_int "earlier" 6 (sweep_key ~width:5 ~key:2 1);
  check_int "self" 7 (sweep_key ~width:5 ~key:2 2);
  check_int "sweep 3" 19 (sweep_key ~width:5 ~key:17 4);
  let w = create 4 in
  add w ~key:0 0;
  let seen = ref [] in
  let visits =
    drain w ~analysis:"test" ~max_visits:100 (fun ~key x ->
        seen := x :: !seen;
        (* a two-block loop 0 -> 1 -> 0, run for two sweeps *)
        if key < 4 then add w ~key:(sweep_key ~width:2 ~key (1 - x)) (1 - x))
  in
  check_list "sweep order" [ 0; 1; 0; 1; 0 ] (List.rev !seen);
  check_int "visits" 5 visits;
  add w ~key:0 0;
  Alcotest.check_raises "visit guard"
    (Fix.Did_not_converge { analysis = "test"; steps = 3 }) (fun () ->
      ignore
        (drain w ~analysis:"test" ~max_visits:3 (fun ~key x ->
             add w ~key:(key + 1) x)))

let test_bitv () =
  let s = Bitv.create 130 in
  List.iter (Bitv.add s) [ 0; 62; 63; 129 ];
  Bitv.remove s 62;
  Alcotest.(check (list int)) "members" [ 0; 63; 129 ]
    (List.filter (Bitv.mem s) (List.init 130 Fun.id));
  let gen = Bitv.create 130 and kill = Bitv.create 130 and dst = Bitv.create 130 in
  Bitv.add gen 5;
  Bitv.add kill 63;
  Alcotest.(check bool) "changed" true (Bitv.flow_into ~dst ~gen ~kill s);
  Alcotest.(check (list int)) "gen + (in - kill)" [ 0; 5; 129 ]
    (List.filter (Bitv.mem dst) (List.init 130 Fun.id));
  Alcotest.(check bool) "stable" false (Bitv.flow_into ~dst ~gen ~kill s);
  let c = Bitv.copy dst in
  Bitv.clear dst;
  Bitv.union_into ~dst c;
  Alcotest.(check bool) "union restores" true (Bitv.mem dst 129 && Bitv.mem dst 5)

let test_int_set_pp () =
  let s = Ints.Int_set.of_list [ 3; 1; 2 ] in
  Alcotest.(check string) "pp" "{1, 2, 3}" (Fmt.str "%a" Ints.pp_int_set s)

let () =
  Alcotest.run "gis_util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_push_get;
          Alcotest.test_case "pop/last" `Quick test_pop_last;
          Alcotest.test_case "insert/remove" `Quick test_insert_remove;
          Alcotest.test_case "iterators" `Quick test_iterators;
          Alcotest.test_case "filter/map/copy" `Quick test_filter_map_copy;
          Alcotest.test_case "set" `Quick test_set_in_place;
        ] );
      ( "fix",
        [
          Alcotest.test_case "iterate" `Quick test_fix_iterate;
          Alcotest.test_case "worklist" `Quick test_worklist;
          Alcotest.test_case "worklist sweeps" `Quick test_worklist_sweeps;
        ] );
      ( "bitv",
        [
          Alcotest.test_case "ops" `Quick test_bitv;
        ] );
      ("ints", [ Alcotest.test_case "pp" `Quick test_int_set_pp ]);
    ]
