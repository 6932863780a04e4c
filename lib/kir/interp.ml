(* Reference interpreter for KIR kernels.

   Executes a kernel body once per thread index, exactly as the device
   would, against the simulated address space. Device code must only
   dereference device-accessible memory (device or managed); touching a
   host pointer raises [Device_fault] — the simulated equivalent of an
   illegal address error.

   Pointer arithmetic ([Ptradd]) and f64 loads/stores are in 8-byte
   elements; [Loadi]/[Storei] address 4-byte lanes relative to the same
   pointer. The optional [on_read]/[on_write] callbacks report each
   touched location, which property tests use to check the static kernel
   access analysis against real footprints. *)

exception Device_fault of string
exception Runtime_error of string

type value = VInt of int | VFlt of float | VPtr of Memsim.Ptr.t

let pp_value ppf = function
  | VInt i -> Fmt.pf ppf "%d" i
  | VFlt f -> Fmt.pf ppf "%g" f
  | VPtr p -> Memsim.Ptr.pp ppf p

let as_int = function
  | VInt i -> i
  | VFlt f -> int_of_float f
  | VPtr _ -> raise (Runtime_error "pointer where scalar expected")

let as_flt = function
  | VFlt f -> f
  | VInt i -> float_of_int i
  | VPtr _ -> raise (Runtime_error "pointer where scalar expected")

let as_ptr = function
  | VPtr p -> p
  | v -> raise (Runtime_error (Fmt.str "scalar %a where pointer expected" pp_value v))

let check_device (p : Memsim.Ptr.t) =
  if not (Memsim.Space.device_accessible (Memsim.Ptr.space p)) then
    raise (Device_fault (Fmt.str "kernel touched host memory %a" Memsim.Ptr.pp p))

let truthy v = as_int v <> 0

let binop op a b =
  let open Ir in
  let arith fi ff =
    match (a, b) with
    | VInt x, VInt y -> VInt (fi x y)
    | _ -> VFlt (ff (as_flt a) (as_flt b))
  in
  let cmp fi ff =
    match (a, b) with
    | VInt x, VInt y -> VInt (if fi x y then 1 else 0)
    | _ -> VInt (if ff (as_flt a) (as_flt b) then 1 else 0)
  in
  match op with
  | Add -> arith ( + ) ( +. )
  | Sub -> arith ( - ) ( -. )
  | Mul -> arith ( * ) ( *. )
  | Div -> (
      match (a, b) with
      | VInt x, VInt y ->
          if y = 0 then raise (Runtime_error "division by zero") else VInt (x / y)
      | _ -> VFlt (as_flt a /. as_flt b))
  | Mod -> (
      match (as_int a, as_int b) with
      | _, 0 -> raise (Runtime_error "mod by zero")
      | x, y -> VInt (x mod y))
  | Min -> arith min min
  | Max -> arith max max
  | Lt -> cmp ( < ) ( < )
  | Le -> cmp ( <= ) ( <= )
  | Eq -> cmp ( = ) ( = )
  | And -> VInt (if truthy a && truthy b then 1 else 0)
  | Or -> VInt (if truthy a || truthy b then 1 else 0)

type frame = {
  args : value array;
  locals : (string, value) Hashtbl.t;
  tid : int;
  ntid : int;
}

type tracer = {
  on_read : Memsim.Ptr.t -> bytes:int -> unit;
  on_write : Memsim.Ptr.t -> bytes:int -> unit;
}

let no_trace = { on_read = (fun _ ~bytes:_ -> ()); on_write = (fun _ ~bytes:_ -> ()) }

(* A thread performing [Barrier_reached] suspends until every other
   live thread of the launch has also arrived (or exited); the handler
   in [run_kernel] parks the continuation for the next wave. *)
type _ Effect.t += Barrier_reached : unit Effect.t

let rec eval m tr fr (e : Ir.expr) : value =
  match e with
  | Int i -> VInt i
  | Flt f -> VFlt f
  | Param i ->
      if i < Array.length fr.args then fr.args.(i)
      else raise (Runtime_error "param out of range")
  | Local n -> (
      match Hashtbl.find_opt fr.locals n with
      | Some v -> v
      | None -> raise (Runtime_error ("unbound local " ^ n)))
  | Tid -> VInt fr.tid
  | Ntid -> VInt fr.ntid
  | Load (pe, ie) ->
      let p = as_ptr (eval m tr fr pe) and i = as_int (eval m tr fr ie) in
      check_device p;
      tr.on_read (Memsim.Ptr.add p ~elt:8 i) ~bytes:8;
      VFlt (Memsim.Access.raw_get_f64 p i)
  | Loadi (pe, ie) ->
      let p = as_ptr (eval m tr fr pe) and i = as_int (eval m tr fr ie) in
      check_device p;
      tr.on_read (Memsim.Ptr.add p ~elt:4 i) ~bytes:4;
      VInt (Memsim.Access.raw_get_i32 p i)
  | Binop (op, a, b) -> binop op (eval m tr fr a) (eval m tr fr b)
  | Neg a -> (
      match eval m tr fr a with
      | VInt i -> VInt (-i)
      | VFlt f -> VFlt (-.f)
      | VPtr _ -> raise (Runtime_error "negating a pointer"))
  | I2f a -> VFlt (as_flt (eval m tr fr a))
  | F2i a -> VInt (as_int (eval m tr fr a))
  | Ptradd (pe, ie) ->
      let p = as_ptr (eval m tr fr pe) and i = as_int (eval m tr fr ie) in
      VPtr (Memsim.Ptr.add p ~elt:8 i)

and exec m tr fr (s : Ir.stmt) =
  match s with
  | Store (pe, ie, ve) ->
      let p = as_ptr (eval m tr fr pe)
      and i = as_int (eval m tr fr ie)
      and v = as_flt (eval m tr fr ve) in
      check_device p;
      tr.on_write (Memsim.Ptr.add p ~elt:8 i) ~bytes:8;
      Memsim.Access.raw_set_f64 p i v
  | Storei (pe, ie, ve) ->
      let p = as_ptr (eval m tr fr pe)
      and i = as_int (eval m tr fr ie)
      and v = as_int (eval m tr fr ve) in
      check_device p;
      tr.on_write (Memsim.Ptr.add p ~elt:4 i) ~bytes:4;
      Memsim.Access.raw_set_i32 p i v
  | Let (n, e) -> Hashtbl.replace fr.locals n (eval m tr fr e)
  | If (c, t, e) ->
      if truthy (eval m tr fr c) then List.iter (exec m tr fr) t
      else List.iter (exec m tr fr) e
  | For (v, lo, hi, body) ->
      let lo = as_int (eval m tr fr lo) and hi = as_int (eval m tr fr hi) in
      for x = lo to hi - 1 do
        Hashtbl.replace fr.locals v (VInt x);
        List.iter (exec m tr fr) body
      done
  | Call (name, args) -> (
      match Ir.find_func m name with
      | None -> raise (Runtime_error ("undefined function " ^ name))
      | Some callee ->
          let argv = Array.of_list (List.map (eval m tr fr) args) in
          let fr' =
            { fr with args = argv; locals = Hashtbl.create 8 }
          in
          List.iter (exec m tr fr') callee.Ir.body)
  | Barrier -> Effect.perform Barrier_reached

(* Run one thread of [name] to completion. [on_barrier] is invoked each
   time the thread executes a [Barrier]; the default treats barriers as
   no-ops, which is only correct for single-thread replay (the oracle
   use-case: per-thread traces tagged with a phase counter). *)
let run_thread ?(tracer = no_trace) ?on_barrier m ~name ~args ~tid ~ntid =
  match Ir.find_func m name with
  | None -> raise (Runtime_error ("undefined kernel " ^ name))
  | Some f ->
      let fr = { args; locals = Hashtbl.create 8; tid; ntid } in
      let body () = List.iter (exec m tracer fr) f.Ir.body in
      Effect.Deep.match_with body ()
        {
          retc = (fun () -> ());
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Barrier_reached ->
                  Some
                    (fun (k : (a, _) Effect.Deep.continuation) ->
                      (match on_barrier with Some f -> f () | None -> ());
                      Effect.Deep.continue k ())
              | _ -> None);
        }

(* Phase-tagged footprint of ONE thread replayed in isolation: every
   touched byte range, in program order, tagged with the number of
   barriers the thread had executed when it made the access. Two
   isolated replays with the same initial memory expose exactly the
   cross-thread conflicts of one launch: accesses in the same dynamic
   phase are unordered between threads. Used by the witness validator
   and the repair oracle (and mirrors what the property tests in
   test_race.ml build by hand). *)
type footprint_event = {
  ev_phase : int; (* dynamic barrier count when the access happened *)
  ev_addr : int; (* absolute simulated address of the first byte *)
  ev_bytes : int;
  ev_write : bool;
}

let thread_footprint m ~name ~args ~tid ~ntid : footprint_event list =
  let events = ref [] and phase = ref 0 in
  let push write p ~bytes =
    events :=
      {
        ev_phase = !phase;
        ev_addr = Memsim.Ptr.addr p;
        ev_bytes = bytes;
        ev_write = write;
      }
      :: !events
  in
  let tracer = { on_read = push false; on_write = push true } in
  run_thread ~tracer ~on_barrier:(fun () -> incr phase) m ~name ~args ~tid
    ~ntid;
  List.rev !events

let module_has_barrier m name =
  let visited = Hashtbl.create 8 in
  let rec func name =
    if Hashtbl.mem visited name then false
    else begin
      Hashtbl.replace visited name ();
      match Ir.find_func m name with
      | None -> false
      | Some f -> List.exists stmt f.Ir.body
    end
  and stmt = function
    | Ir.Barrier -> true
    | Ir.If (_, t, e) -> List.exists stmt t || List.exists stmt e
    | Ir.For (_, _, _, body) -> List.exists stmt body
    | Ir.Call (callee, _) -> func callee
    | Ir.Store _ | Ir.Storei _ | Ir.Let _ -> false
  in
  func name

(* Run the whole grid with barrier semantics: execution proceeds in
   waves — every live thread runs up to its next [Barrier] (or to
   completion), then all threads resume together. Within a wave,
   threads run in tid order (the device's finer interleaving does not
   matter for the inter-kernel race model, which is the paper's scope;
   intra-kernel orderings are the static race analysis's problem).
   Barrier-free kernels take a straight-line path: no barrier is
   reachable, so no effect handler is installed; the kernel is resolved
   once and one locals table, reset per thread, serves the whole grid. *)
let run_kernel ?(tracer = no_trace) m ~name ~args ~grid =
  if not (module_has_barrier m name) then begin
    if grid > 0 then
      match Ir.find_func m name with
      | None -> raise (Runtime_error ("undefined kernel " ^ name))
      | Some f ->
          let locals = Hashtbl.create 8 in
          for tid = 0 to grid - 1 do
            Hashtbl.reset locals;
            let fr = { args; locals; tid; ntid = grid } in
            List.iter (exec m tracer fr) f.Ir.body
          done
  end
  else begin
    (* Continuations of threads parked at the current barrier. *)
    let next_wave : (unit -> unit) list ref = ref [] in
    let spawn tid () =
      match Ir.find_func m name with
      | None -> raise (Runtime_error ("undefined kernel " ^ name))
      | Some f ->
          let fr = { args; locals = Hashtbl.create 8; tid; ntid = grid } in
          List.iter (exec m tracer fr) f.Ir.body
    in
    let handle body =
      Effect.Deep.match_with body ()
        {
          retc = (fun () -> ());
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Barrier_reached ->
                  Some
                    (fun (k : (a, _) Effect.Deep.continuation) ->
                      next_wave :=
                        (fun () -> Effect.Deep.continue k ()) :: !next_wave)
              | _ -> None);
        }
    in
    for tid = 0 to grid - 1 do
      handle (spawn tid)
    done;
    while !next_wave <> [] do
      let wave = List.rev !next_wave in
      next_wave := [];
      List.iter (fun resume -> handle resume) wave
    done
  end
