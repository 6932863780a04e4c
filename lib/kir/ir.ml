(* A miniature structured IR for device code — the stand-in for the
   LLVM IR of CUDA kernels that CuSan's device pass analyzes (paper,
   Section IV-B1). It is deliberately small: f64/i32 memory, pointer
   parameters, pointer arithmetic, loops, conditionals, and calls to
   other device functions (so the interprocedural analysis of Fig. 8 has
   something to chew on). Kernels can also be *executed* by Interp,
   which lets property tests check the static access analysis against
   real footprints. *)

type ty = Scalar | Pointer

type binop = Add | Sub | Mul | Div | Min | Max | Lt | Le | Eq | And | Or | Mod

type expr =
  | Int of int
  | Flt of float
  | Param of int (* function parameter by position *)
  | Local of string (* let-bound local *)
  | Tid (* global thread index of this kernel instance *)
  | Ntid (* total number of threads of the launch *)
  | Load of expr * expr (* f64: ptr[idx] *)
  | Loadi of expr * expr (* i32: ptr[idx] *)
  | Binop of binop * expr * expr
  | Neg of expr
  | I2f of expr
  | F2i of expr
  | Ptradd of expr * expr (* pointer + idx elements (element size of use) *)

type stmt =
  | Store of expr * expr * expr (* f64: ptr[idx] <- v *)
  | Storei of expr * expr * expr (* i32 *)
  | Let of string * expr
  | If of expr * stmt list * stmt list
  | For of string * expr * expr * stmt list (* var = lo .. hi-1 *)
  | Call of string * expr list (* device function call *)
  | Barrier (* __syncthreads(): all threads of the launch rendezvous *)

type func = {
  fname : string;
  params : (string * ty) list;
  body : stmt list;
}

type modul = {
  funcs : func list;
  kernels : string list; (* entry points (global functions) *)
}

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

(* Does calling [name] execute a [Barrier] on some path? One depth-first
   walk over the call graph from [name], with its own visited set: a
   function already on the walk adds nothing new, and the answer does
   not depend on which functions were asked about before. An undefined
   callee reaches no barrier. *)
let reaches_barrier m name =
  let visited = Hashtbl.create 8 in
  let rec func name =
    if Hashtbl.mem visited name then false
    else begin
      Hashtbl.replace visited name ();
      match find_func m name with
      | None -> false
      | Some f -> List.exists stmt f.body
    end
  and stmt = function
    | Barrier -> true
    | If (_, t, e) -> List.exists stmt t || List.exists stmt e
    | For (_, _, _, body) -> List.exists stmt body
    | Call (callee, _) -> func callee
    | Store _ | Storei _ | Let _ -> false
  in
  func name

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Min -> "min" | Max -> "max" | Lt -> "<" | Le -> "<="
  | Eq -> "==" | And -> "&&" | Or -> "||" | Mod -> "%"

let rec pp_expr ppf = function
  | Int i -> Fmt.int ppf i
  | Flt f -> Fmt.float ppf f
  | Param i -> Fmt.pf ppf "%%arg%d" i
  | Local s -> Fmt.pf ppf "%%%s" s
  | Tid -> Fmt.string ppf "tid"
  | Ntid -> Fmt.string ppf "ntid"
  | Load (p, i) -> Fmt.pf ppf "%a[%a]" pp_expr p pp_expr i
  | Loadi (p, i) -> Fmt.pf ppf "%a.i32[%a]" pp_expr p pp_expr i
  | Binop (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Neg e -> Fmt.pf ppf "(-%a)" pp_expr e
  | I2f e -> Fmt.pf ppf "i2f(%a)" pp_expr e
  | F2i e -> Fmt.pf ppf "f2i(%a)" pp_expr e
  | Ptradd (p, i) -> Fmt.pf ppf "(%a +p %a)" pp_expr p pp_expr i

let rec pp_stmt ppf = function
  | Store (p, i, v) -> Fmt.pf ppf "%a[%a] := %a" pp_expr p pp_expr i pp_expr v
  | Storei (p, i, v) ->
      Fmt.pf ppf "%a.i32[%a] := %a" pp_expr p pp_expr i pp_expr v
  | Let (n, e) -> Fmt.pf ppf "let %%%s = %a" n pp_expr e
  | If (c, t, e) ->
      Fmt.pf ppf "@[<v 2>if %a {@,%a@]@,}%a" pp_expr c
        (Fmt.list ~sep:Fmt.cut pp_stmt) t
        (fun ppf e ->
          if e <> [] then
            Fmt.pf ppf "@[<v 2> else {@,%a@]@,}" (Fmt.list ~sep:Fmt.cut pp_stmt) e)
        e
  | For (v, lo, hi, body) ->
      Fmt.pf ppf "@[<v 2>for %%%s = %a .. %a {@,%a@]@,}" v pp_expr lo pp_expr
        hi
        (Fmt.list ~sep:Fmt.cut pp_stmt)
        body
  | Call (f, args) ->
      Fmt.pf ppf "call %s(%a)" f (Fmt.list ~sep:Fmt.comma pp_expr) args
  | Barrier -> Fmt.string ppf "__syncthreads()"

let pp_func ppf f =
  Fmt.pf ppf "@[<v 2>func %s(%a) {@,%a@]@,}" f.fname
    (Fmt.list ~sep:Fmt.comma (fun ppf (n, ty) ->
         Fmt.pf ppf "%s:%s" n (match ty with Scalar -> "s" | Pointer -> "p")))
    f.params
    (Fmt.list ~sep:Fmt.cut pp_stmt)
    f.body
