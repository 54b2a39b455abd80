type pass = Global | Local

exception No_progress of { pass : pass; block : Gis_ir.Label.t; cycle : int }

let () =
  Printexc.register_printer (function
    | No_progress { pass; block; cycle } ->
        Some
          (Fmt.str "%s: no progress in block %a after %d cycles"
             (match pass with Global -> "Global_sched" | Local -> "Local_sched")
             Gis_ir.Label.pp block cycle)
    | _ -> None)
