(** FastTrack epochs: a (fiber id, clock value) pair packed into a
    single immediate integer, the fast-path representation of "last
    access" in shadow cells. Epoch 0 means "never accessed"; clocks
    therefore start at 1. *)

val none : int
(** The "never accessed" epoch. *)

val pack : tid:int -> clock:int -> int
(** Pack a fiber id and a positive clock value. *)

val tid : int -> int
val clock : int -> int
val is_none : int -> bool

val hb : int -> Vclock.t -> bool
(** [hb e vc]: did the access at epoch [e] happen before the fiber
    owning vector clock [vc]? (FastTrack's O(1) epoch-vs-clock check.) *)

val pp : Format.formatter -> int -> unit
