(* Per-domain caches keyed by the identity of a KIR module: a list of
   (module, value) pairs, most recently used first, at most [capacity]
   long.

   The cache holds its modules strongly. An ephemeron table would let
   the GC drop a module nothing else references, but on OCaml 5.1 the
   keys of a table that only grows are not cleared by ordinary major
   cycles, only by [Gc.full_major]: the kirlint stages, whose repair
   step builds a fresh module per candidate fix, kept every one of them
   and tripled the peak RSS of a kirlint run. A bound keeps at most
   [capacity] dropped modules alive instead. *)

let capacity = 32

type 'a t = (Ir.modul * 'a) list Domain.DLS.key

let create () = Domain.DLS.new_key (fun () -> [])

let find_or_add t m compute =
  match Domain.DLS.get t with
  | (k, v) :: _ when k == m -> v
  | entries -> (
      match List.assq_opt m entries with
      | Some v ->
          Domain.DLS.set t ((m, v) :: List.filter (fun (k, _) -> k != m) entries);
          v
      | None ->
          let v = compute m in
          Domain.DLS.set t
            ((m, v) :: List.filteri (fun i _ -> i < capacity - 1) entries);
          v)
