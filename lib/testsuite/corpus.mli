(** Seeded kernel corpus for the static intra-kernel race analysis:
    one-kernel modules with known ground-truth verdicts, shared by
    [kirlint --corpus], the classification unit tests, and the
    testsuite's intra-kernel case family. *)

type expect =
  | Clean  (** no race reported (may or must) is acceptable; must-free *)
  | May  (** at least one report expected, but no must-verdict *)
  | Must  (** at least one must-race expected *)
  | Invalid  (** the validator must reject the module *)

val expect_str : expect -> string

type repair_expect =
  | Nothing_to_fix
      (** no provable race: repair must report already-clean (unproved
          may candidates are allowed to remain) *)
  | Fixable of int list
      (** the exact minimal barrier insertion set the deterministic
          search must return, as gap indices into the entry body (see
          {!Kir.Rewrite.insert_barriers}) *)
  | Unfixable
      (** provable race(s) no top-level barrier insertion cures, e.g.
          both accesses in one statement *)

type entry = {
  name : string;
  expect : expect;
  descr : string;
  m : Kir.Ir.modul;
  entry : string;  (** kernel entry point inside [m] *)
  proves : bool;
      (** ground truth for witness mode: does at least one candidate
          validate by interpreter replay? *)
  repair : repair_expect;  (** ground truth for [--suggest-fixes] *)
}

val neighbor_write : Kir.Ir.modul
val reduction_nosync : Kir.Ir.modul
val two_phase_nobarrier : Kir.Ir.modul
val two_phase_barrier : Kir.Ir.modul
val guarded_reduction : Kir.Ir.modul
val offset_write : Kir.Ir.modul
val unknown_stride : Kir.Ir.modul
val divergent_barrier : Kir.Ir.modul
val exchange_nobarrier : Kir.Ir.modul

val all : entry list
