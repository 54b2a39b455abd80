(** Fixed-width mutable bit-vectors over the elements [0 .. n-1],
    stored as arrays of [int] words holding 63 elements each.

    Reaching definitions and liveness keep their per-block summaries
    and in/out sets here: union and difference run a word at a time
    instead of rebalancing a tree per element. All binary operations
    require vectors of the same width. *)

type t

val create : int -> t
(** [create n] is the empty set over [0 .. n-1]. *)

val copy : t -> t

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit
(** Remove every element. *)

val widen : t -> int -> t
(** [widen t n] is [t] itself when it already holds the elements
    [0 .. n-1], and otherwise a wider copy of [t] with the same
    elements. *)

val iter : (int -> unit) -> t -> unit
(** The elements in increasing order. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst s] adds every element of [s] to [dst]. *)

val flow_into : dst:t -> gen:t -> kill:t -> t -> bool
(** [flow_into ~dst ~gen ~kill s] sets [dst] to [gen ∪ (s − kill)] and
    returns whether [dst] changed. *)
