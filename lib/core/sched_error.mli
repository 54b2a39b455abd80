(** The one way a list scheduler gives up.

    Both schedulers fill a block cycle by cycle and stop when its
    terminator has issued. A block holding an instruction that no unit
    of the machine can issue (a [Float] instruction on a machine built
    with [~float_units:0]) would never finish; a cycle guard turns that
    into {!No_progress} instead of a hang. *)

type pass =
  | Global  (** a block pass of {!Global_sched} *)
  | Local  (** {!Local_sched} *)

exception No_progress of { pass : pass; block : Gis_ir.Label.t; cycle : int }
(** Raised by [pass] while scheduling [block] once [cycle] exceeds the
    guard. A printer is registered with [Printexc]. *)
