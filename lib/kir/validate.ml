(* Static well-formedness checks on a KIR module: name resolution,
   arity, pointer/scalar typing, and barrier placement. Run before
   analysis or execution, like the IR verifier in a real compiler.

   Barrier placement: a [Barrier] is a grid-wide rendezvous, so every
   thread must reach it — a barrier under a condition (or loop bound)
   whose value can differ between threads is undefined behaviour on
   real hardware. We reject it with the conservative uniformity check:
   an expression is uniform when its value over tid is a constant,
   which we approximate as "does not read tid and does not load from
   memory" (loads may observe another thread's in-flight writes).
   Calls into barrier-containing functions are held to the same rule:
   they must be reached uniformly and with uniform arguments. *)

exception Invalid of string

let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

type env = {
  params : Ir.ty array;
  locals : (string, Ir.ty * bool) Hashtbl.t;
      (* type and uniformity (constant over tid) of each local *)
}

let rec type_of env (e : Ir.expr) : Ir.ty =
  match e with
  | Int _ | Flt _ | Tid | Ntid -> Scalar
  | Param i ->
      if i < 0 || i >= Array.length env.params then fail "param %d out of range" i
      else env.params.(i)
  | Local n -> (
      match Hashtbl.find_opt env.locals n with
      | Some (t, _) -> t
      | None -> fail "unbound local %%%s" n)
  | Load (p, i) | Loadi (p, i) ->
      if type_of env p <> Pointer then fail "load from non-pointer";
      if type_of env i <> Scalar then fail "non-scalar index";
      Scalar
  | Binop (_, a, b) ->
      if type_of env a <> Scalar || type_of env b <> Scalar then
        fail "binop on pointer";
      Scalar
  | Neg a | I2f a | F2i a ->
      if type_of env a <> Scalar then fail "unop on pointer";
      Scalar
  | Ptradd (p, i) ->
      if type_of env p <> Pointer then fail "ptradd on non-pointer";
      if type_of env i <> Scalar then fail "non-scalar ptradd offset";
      Pointer

(* Is [e]'s value the same for every thread of the launch? Launch
   arguments (params) and ntid are; tid is not; loaded values are
   conservatively not (another thread may race the location within the
   current phase). *)
let rec uniform env (e : Ir.expr) : bool =
  match e with
  | Int _ | Flt _ | Ntid | Param _ -> true
  | Tid -> false
  | Local n -> (
      match Hashtbl.find_opt env.locals n with
      | Some (_, u) -> u
      | None -> fail "unbound local %%%s" n)
  | Load _ | Loadi _ -> false
  | Binop (_, a, b) | Ptradd (a, b) -> uniform env a && uniform env b
  | Neg a | I2f a | F2i a -> uniform env a

(* [div] is true when control flow reaching this statement may be
   tid-divergent (a non-uniform condition or loop bound encloses it). *)
let rec check_stmt (m : Ir.modul) barrier_in env ~div (s : Ir.stmt) =
  match s with
  | Store (p, i, v) | Storei (p, i, v) ->
      if type_of env p <> Pointer then fail "store to non-pointer";
      if type_of env i <> Scalar then fail "non-scalar index";
      if type_of env v <> Scalar then fail "storing a pointer";
      ()
  | Let (n, e) ->
      Hashtbl.replace env.locals n (type_of env e, uniform env e)
  | If (c, t, e) ->
      if type_of env c <> Scalar then fail "pointer condition";
      let div = div || not (uniform env c) in
      List.iter (check_stmt m barrier_in env ~div) t;
      List.iter (check_stmt m barrier_in env ~div) e
  | For (v, lo, hi, body) ->
      if type_of env lo <> Scalar || type_of env hi <> Scalar then
        fail "pointer loop bound";
      let bounds_uniform = uniform env lo && uniform env hi in
      (* A non-uniform trip count makes everything in the body
         divergent: threads disagree on whether an iteration runs. *)
      Hashtbl.replace env.locals v (Ir.Scalar, bounds_uniform);
      let div = div || not bounds_uniform in
      List.iter (check_stmt m barrier_in env ~div) body
  | Call (name, args) -> (
      match Ir.find_func m name with
      | None -> fail "call to undefined function %s" name
      | Some callee ->
          if List.length args <> List.length callee.Ir.params then
            fail "arity mismatch calling %s" name;
          List.iter2
            (fun arg (pname, pty) ->
              if type_of env arg <> pty then
                fail "argument %s of %s: type mismatch" pname name)
            args callee.Ir.params;
          if barrier_in name then begin
            if div then
              fail "tid-divergent call to %s, which executes a barrier" name;
            List.iter2
              (fun arg (pname, _) ->
                if not (uniform env arg) then
                  fail
                    "non-uniform argument %s to %s, which executes a barrier"
                    pname name)
              args callee.Ir.params
          end)
  | Barrier ->
      if div then fail "tid-divergent barrier (__syncthreads under a condition whose value varies over tid)"

let check_func m (f : Ir.func) =
  let env =
    {
      params = Array.of_list (List.map snd f.Ir.params);
      locals = Hashtbl.create 8;
    }
  in
  let barrier_in = Ir.reaches_barrier m in
  List.iter (check_stmt m barrier_in env ~div:false) f.Ir.body

let check_module (m : Ir.modul) =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      if Hashtbl.mem seen f.Ir.fname then
        fail "duplicate function %s" f.Ir.fname;
      Hashtbl.replace seen f.Ir.fname ())
    m.Ir.funcs;
  List.iter
    (fun k ->
      if Ir.find_func m k = None then fail "kernel %s not defined" k)
    m.Ir.kernels;
  List.iter (check_func m) m.Ir.funcs
