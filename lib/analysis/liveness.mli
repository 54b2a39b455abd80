(** Live-variable analysis over a whole CFG.

    The global scheduler needs the registers *live on exit* from each
    basic block to decide whether a speculative motion is safe (paper
    Section 5.3): an instruction must not be moved into block [B] if it
    writes a register live on exit from [B]. The paper notes that this
    information "has to be updated dynamically"; {!refresh} does so at
    the cost of the blocks a motion touched, not of the procedure.

    Each block keeps a use/def summary as a bit-vector over a dense
    register index. A caller that changes instruction lists passes to
    {!refresh} every block whose instruction list changed: instructions
    added, removed, reordered, or with renamed operands. Blocks not
    listed keep their summaries, which is exact because a block's
    summary depends only on its own instructions. The fixpoint is then
    solved again from empty sets, so the result is the same least
    fixpoint {!compute} reaches on the changed CFG; {!compute} is
    itself a refresh of an analysis that has seen no block. *)

type t

val compute : Gis_ir.Cfg.t -> t
(** Backward iterative dataflow to a fixpoint; back edges included.
    Blocks outside the layout have empty sets. *)

val refresh : t -> Gis_ir.Cfg.t -> int list -> unit
(** [refresh t cfg ids] updates [t] in place after the instruction
    lists of blocks [ids] changed: it re-summarizes exactly those
    blocks and the blocks added to [cfg] since, widens the vectors when
    renaming introduced registers, and re-solves the fixpoint from
    empty over the current edges and layout. Every block whose
    instruction list changed must be listed; listing an unchanged block
    is harmless. Block ids are stable, so [cfg] holds at least the
    blocks [t] has seen; raises [Invalid_argument] otherwise. *)

val live_in : t -> int -> Gis_ir.Reg.Set.t
val live_out : t -> int -> Gis_ir.Reg.Set.t

val live_before_terminator : t -> Gis_ir.Cfg.t -> int -> Gis_ir.Reg.Set.t
(** Registers live immediately before the block's terminator — what a
    motion *into* the block (which always places code before the
    terminator) must not clobber. Equals [live_out] plus the
    terminator's own uses. *)

val pp : t Fmt.t
