(* Interpreter for KIR kernels.

   Executes a kernel body once per thread index, exactly as the device
   would, against the simulated address space. Device code must only
   dereference device-accessible memory (device or managed); touching a
   host pointer raises [Device_fault] — the simulated equivalent of an
   illegal address error.

   Pointer arithmetic ([Ptradd]) and f64 loads/stores are in 8-byte
   elements; [Loadi]/[Storei] address 4-byte lanes relative to the same
   pointer. The optional [on_read]/[on_write] callbacks report each
   touched location, which property tests use to check the static kernel
   access analysis against real footprints.

   Each module is compiled once per domain (see [Memo]) into OCaml
   closures: a function's locals live in slots of a per-activation
   array, calls jump straight to the callee's compiled body, each binop
   is bound to its operator's function at compile time, and each
   function's "reaches a barrier" flag is computed once. Execution keeps
   the order of a direct walk of the IR: the pointer, index and value of
   an access and the bounds of a loop run left to right, binop operands
   right to left, call arguments left to right, and every error is
   raised where that walk raises it. Compiling never raises: an
   undefined callee or an unbound local compiles to code that raises
   when it runs. *)

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

(* --- binops: int when both operands are, f64 otherwise ------------------ *)

let add a b =
  match (a, b) with
  | VInt x, VInt y -> VInt (x + y)
  | _ -> VFlt (as_flt a +. as_flt b)

let sub a b =
  match (a, b) with
  | VInt x, VInt y -> VInt (x - y)
  | _ -> VFlt (as_flt a -. as_flt b)

let mul a b =
  match (a, b) with
  | VInt x, VInt y -> VInt (x * y)
  | _ -> VFlt (as_flt a *. as_flt b)

let div a b =
  match (a, b) with
  | VInt x, VInt y ->
      if y = 0 then raise (Runtime_error "division by zero") else VInt (x / y)
  | _ -> VFlt (as_flt a /. as_flt b)

let rem a b =
  let y = as_int b in
  let x = as_int a in
  if y = 0 then raise (Runtime_error "mod by zero") else VInt (x mod y)

(* [Stdlib.min]/[max] on each type: the first operand on ties and, for
   floats, the second when the comparison is false on a NaN. *)
let min_ a b =
  match (a, b) with
  | VInt x, VInt y -> VInt (if x <= y then x else y)
  | _ ->
      let x = as_flt a and y = as_flt b in
      VFlt (if x <= y then x else y)

let max_ a b =
  match (a, b) with
  | VInt x, VInt y -> VInt (if x >= y then x else y)
  | _ ->
      let x = as_flt a and y = as_flt b in
      VFlt (if x >= y then x else y)

let of_bool c = VInt (if c then 1 else 0)

let lt a b =
  match (a, b) with
  | VInt x, VInt y -> of_bool (x < y)
  | _ -> of_bool (as_flt a < as_flt b)

let le a b =
  match (a, b) with
  | VInt x, VInt y -> of_bool (x <= y)
  | _ -> of_bool (as_flt a <= as_flt b)

let eq a b =
  match (a, b) with
  | VInt x, VInt y -> of_bool (x = y)
  | _ -> of_bool (as_flt a = as_flt b)

let and_ a b = of_bool (truthy a && truthy b)
let or_ a b = of_bool (truthy a || truthy b)

let binop : Ir.binop -> value -> value -> value = function
  | Add -> add
  | Sub -> sub
  | Mul -> mul
  | Div -> div
  | Mod -> rem
  | Min -> min_
  | Max -> max_
  | Lt -> lt
  | Le -> le
  | Eq -> eq
  | And -> and_
  | Or -> or_

type tracer = {
  on_read : Memsim.Ptr.t -> bytes:int -> unit;
  on_write : Memsim.Ptr.t -> bytes:int -> unit;
}

let no_trace = { on_read = (fun _ ~bytes:_ -> ()); on_write = (fun _ ~bytes:_ -> ()) }

(* A thread performing [Barrier_reached] suspends until every other
   live thread of the launch has also arrived (or exited); the handler
   in [run_kernel] parks the continuation for the next wave. *)
type _ Effect.t += Barrier_reached : unit Effect.t

(* --- compiled form ------------------------------------------------------- *)

(* One function activation. An access builds its event's pointer only
   when [tr] is not [no_trace]. *)
type frame = {
  args : value array;
  slots : value array;
  tid : int;
  ntid : int;
  tr : tracer;
}

(* The content of a slot no [Let] or loop has written yet. It is a fresh
   block, so no value a kernel computes is physically equal to it, and
   it never leaves a frame: reading it raises "unbound local". *)
let unbound = VInt (Sys.opaque_identity 0)

type cfunc = {
  mutable nslots : int;
  mutable body : frame -> unit;
  barrier : bool; (* a [Barrier] is reachable from the body *)
}

let rec expr slot (e : Ir.expr) : frame -> value =
  match e with
  | Int i ->
      let v = VInt i in
      fun _ -> v
  | Flt f ->
      let v = VFlt f in
      fun _ -> v
  | Param i ->
      fun fr ->
        if i < Array.length fr.args then fr.args.(i)
        else raise (Runtime_error "param out of range")
  | Local n ->
      let s = slot n and msg = "unbound local " ^ n in
      fun fr ->
        let v = fr.slots.(s) in
        if v == unbound then raise (Runtime_error msg) else v
  | Tid -> fun fr -> VInt fr.tid
  | Ntid -> fun fr -> VInt fr.ntid
  | Load (pe, ie) ->
      let pe = expr slot pe and ie = expr slot ie in
      fun fr ->
        let p = as_ptr (pe fr) in
        let i = as_int (ie fr) in
        check_device p;
        if fr.tr != no_trace then fr.tr.on_read (Memsim.Ptr.add p ~elt:8 i) ~bytes:8;
        VFlt (Memsim.Access.raw_get_f64 p i)
  | Loadi (pe, ie) ->
      let pe = expr slot pe and ie = expr slot ie in
      fun fr ->
        let p = as_ptr (pe fr) in
        let i = as_int (ie fr) in
        check_device p;
        if fr.tr != no_trace then fr.tr.on_read (Memsim.Ptr.add p ~elt:4 i) ~bytes:4;
        VInt (Memsim.Access.raw_get_i32 p i)
  | Binop (op, a, b) ->
      let f = binop op and a = expr slot a and b = expr slot b in
      fun fr ->
        let y = b fr in
        f (a fr) y
  | Neg a -> (
      let a = expr slot a in
      fun fr ->
        match a fr with
        | VInt i -> VInt (-i)
        | VFlt f -> VFlt (-.f)
        | VPtr _ -> raise (Runtime_error "negating a pointer"))
  | I2f a ->
      let a = expr slot a in
      fun fr -> VFlt (as_flt (a fr))
  | F2i a ->
      let a = expr slot a in
      fun fr -> VInt (as_int (a fr))
  | Ptradd (pe, ie) ->
      let pe = expr slot pe and ie = expr slot ie in
      fun fr ->
        let p = as_ptr (pe fr) in
        let i = as_int (ie fr) in
        VPtr (Memsim.Ptr.add p ~elt:8 i)

let rec stmt funcs slot (s : Ir.stmt) : frame -> unit =
  match s with
  | Store (pe, ie, ve) ->
      let pe = expr slot pe and ie = expr slot ie and ve = expr slot ve in
      fun fr ->
        let p = as_ptr (pe fr) in
        let i = as_int (ie fr) in
        let v = as_flt (ve fr) in
        check_device p;
        if fr.tr != no_trace then fr.tr.on_write (Memsim.Ptr.add p ~elt:8 i) ~bytes:8;
        Memsim.Access.raw_set_f64 p i v
  | Storei (pe, ie, ve) ->
      let pe = expr slot pe and ie = expr slot ie and ve = expr slot ve in
      fun fr ->
        let p = as_ptr (pe fr) in
        let i = as_int (ie fr) in
        let v = as_int (ve fr) in
        check_device p;
        if fr.tr != no_trace then fr.tr.on_write (Memsim.Ptr.add p ~elt:4 i) ~bytes:4;
        Memsim.Access.raw_set_i32 p i v
  | Let (n, e) ->
      let s = slot n and e = expr slot e in
      fun fr -> fr.slots.(s) <- e fr
  | If (c, t, e) ->
      let c = expr slot c and t = block funcs slot t and e = block funcs slot e in
      fun fr -> if truthy (c fr) then t fr else e fr
  | For (v, lo, hi, body) ->
      let s = slot v
      and lo = expr slot lo
      and hi = expr slot hi
      and body = block funcs slot body in
      fun fr ->
        let lo = as_int (lo fr) in
        let hi = as_int (hi fr) in
        for x = lo to hi - 1 do
          fr.slots.(s) <- VInt x;
          body fr
        done
  | Call (name, args) -> (
      match Hashtbl.find_opt funcs name with
      | None ->
          let msg = "undefined function " ^ name in
          fun _ -> raise (Runtime_error msg)
      | Some callee ->
          let args = Array.of_list (List.map (expr slot) args) in
          fun fr ->
            let args = Array.map (fun a -> a fr) args in
            callee.body
              { fr with args; slots = Array.make callee.nslots unbound })
  | Barrier -> fun _ -> Effect.perform Barrier_reached

and block funcs slot = function
  | [] -> fun _ -> ()
  | [ s ] -> stmt funcs slot s
  | s :: rest ->
      let s = stmt funcs slot s and rest = block funcs slot rest in
      fun fr ->
        s fr;
        rest fr

let reaches_barrier m name =
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

(* Compile every function of [m]. A name resolves to its first
   definition, as [Ir.find_func] does; later duplicates are unreachable
   and left uncompiled. Bodies are compiled after every function has
   its record, so calls (recursive ones included) bind to the record
   and read its body and slot count when they run. *)
let compile (m : Ir.modul) : (string, cfunc) Hashtbl.t =
  let funcs = Hashtbl.create 8 in
  let defs =
    List.filter_map
      (fun (f : Ir.func) ->
        if Hashtbl.mem funcs f.Ir.fname then None
        else begin
          let cf =
            { nslots = 0; body = ignore; barrier = reaches_barrier m f.Ir.fname }
          in
          Hashtbl.replace funcs f.Ir.fname cf;
          Some (f, cf)
        end)
      m.Ir.funcs
  in
  List.iter
    (fun ((f : Ir.func), cf) ->
      let scope = Hashtbl.create 8 in
      let slot n =
        match Hashtbl.find_opt scope n with
        | Some s -> s
        | None ->
            let s = Hashtbl.length scope in
            Hashtbl.replace scope n s;
            s
      in
      cf.body <- block funcs slot f.Ir.body;
      cf.nslots <- Hashtbl.length scope)
    defs;
  funcs

let compiled : (string, cfunc) Hashtbl.t Memo.t = Memo.create ()

let kernel m name =
  match Hashtbl.find_opt (Memo.find_or_add compiled m compile) name with
  | Some k -> k
  | None -> raise (Runtime_error ("undefined kernel " ^ name))

let frame k ~tracer ~args ~tid ~ntid =
  { args; slots = Array.make k.nslots unbound; tid; ntid; tr = tracer }

(* Run one thread of [name] to completion. [on_barrier] is invoked each
   time the thread executes a [Barrier]; the default treats barriers as
   no-ops, which is only correct for single-thread replay (the oracle
   use-case: per-thread traces tagged with a phase counter). *)
let run_thread ?(tracer = no_trace) ?on_barrier m ~name ~args ~tid ~ntid =
  let k = kernel m name in
  let fr = frame k ~tracer ~args ~tid ~ntid in
  if not k.barrier then k.body fr
  else
    Effect.Deep.match_with k.body fr
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

(* Run the whole grid with barrier semantics: execution proceeds in
   waves — every live thread runs up to its next [Barrier] (or to
   completion), then all threads resume together. Within a wave,
   threads run in tid order (the device's finer interleaving does not
   matter for the inter-kernel race model, which is the paper's scope;
   intra-kernel orderings are the static race analysis's problem).
   Barrier-free kernels run each thread straight through, with no
   effect handler installed. *)
let run_kernel ?(tracer = no_trace) m ~name ~args ~grid =
  if grid > 0 then begin
    let k = kernel m name in
    let thread tid () = k.body (frame k ~tracer ~args ~tid ~ntid:grid) in
    if not k.barrier then
      for tid = 0 to grid - 1 do
        thread tid ()
      done
    else begin
      (* Continuations of threads parked at the current barrier. *)
      let next_wave : (unit -> unit) list ref = ref [] in
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
        handle (thread tid)
      done;
      while !next_wave <> [] do
        let wave = List.rev !next_wave in
        next_wave := [];
        List.iter handle wave
      done
    end
  end
