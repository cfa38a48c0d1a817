open Ast
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution

exception Runtime_error of string

(* Evaluation context threaded through compiled closures. *)
type ctx = {
  mutable node : int;
  mutable p0 : int;  (* #0 *)
  mutable p1 : int;  (* #1 *)
  locals : float array;
}

type env = {
  rt : Runtime.t;
  compiled : Compile.compiled;
  aggs : (string, Aggregate.t) Hashtbl.t;
  phases : (int, Runtime.phase) Hashtbl.t;  (* placement phase id -> runtime phase *)
  pfun_procs : (string, string * (ctx -> unit) * int) Hashtbl.t;
      (* name -> (parallel aggregate, compiled body, local slot count) *)
  main_proc : ctx -> unit;
  main_slots : int;
}

(* -- slot assignment ------------------------------------------------------ *)

type slots = { mutable names : string list }

let slot_of slots x =
  let rec find i = function
    | [] ->
        slots.names <- slots.names @ [ x ];
        i
    | y :: _ when y = x -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 slots.names

(* -- deterministic noise intrinsic ---------------------------------------- *)

let noise a b =
  let h = ref (Int64.of_float ((a *. 73856093.0) +. (b *. 19349663.0) +. 0.5)) in
  h := Int64.mul (Int64.logxor !h (Int64.shift_right_logical !h 30)) 0xBF58476D1CE4E5B9L;
  h := Int64.mul (Int64.logxor !h (Int64.shift_right_logical !h 27)) 0x94D049BB133111EBL;
  h := Int64.logxor !h (Int64.shift_right_logical !h 31);
  Int64.to_float (Int64.shift_right_logical !h 11) /. 9007199254740992.0

let truthy v = v <> 0.0
let of_bool b = if b then 1.0 else 0.0

(* -- expression compilation ------------------------------------------------ *)

let index_exn agg what v =
  let i = int_of_float v in
  if Float.is_nan v || Float.abs v >= 1e18 then
    raise (Runtime_error (Printf.sprintf "aggregate %s: non-finite %s index" agg what));
  i

let compile_program rt compiled =
  let sema = compiled.Compile.sema in
  let aggs : (string, Aggregate.t) Hashtbl.t = Hashtbl.create 16 in
  let machine = Runtime.machine rt in
  List.iter
    (fun (decl : agg_decl) ->
      let elem_words = max 1 (List.length decl.agg_fields) in
      let dist =
        match (decl.agg_dist, decl.agg_dims) with
        | Some Dblock, _ -> Distribution.Block1d
        | Some Dcyclic, _ -> Distribution.Cyclic
        | Some Drow_block, _ -> Distribution.Row_block
        | Some (Dtiled (pr, pc)), _ -> Distribution.Tiled { pr; pc }
        | None, [ _ ] -> Distribution.Block1d
        | None, _ -> Distribution.Row_block
      in
      let agg =
        try
          match decl.agg_dims with
          | [ n ] -> Aggregate.create_1d machine ~name:decl.agg_name ~elem_words ~n ~dist ()
          | [ rows; cols ] ->
              Aggregate.create_2d machine ~name:decl.agg_name ~elem_words ~rows ~cols ~dist ()
          | _ -> assert false
        with Invalid_argument msg -> raise (Runtime_error msg)
      in
      Hashtbl.replace aggs decl.agg_name agg)
    sema.Sema.prog.aggs;

  let field_of decl field =
    match Sema.field_index decl field with
    | Ok i -> i
    | Error msg -> raise (Runtime_error msg)
  in

  (* Compile one function body (or main) to a closure. *)
  let compile_body slots body =
    let rec cexpr = function
      | Num f -> fun _ -> f
      | Pos 0 -> fun ctx -> float_of_int ctx.p0
      | Pos _ -> fun ctx -> float_of_int ctx.p1
      | Var x ->
          let s = slot_of slots x in
          fun ctx -> ctx.locals.(s)
      | Agg_read a ->
          let agg = Hashtbl.find aggs a.acc_agg in
          let decl = sema.Sema.agg_of_name a.acc_agg in
          let field = field_of decl a.acc_field in
          (match a.acc_idx with
          | [ e ] ->
              let ce = cexpr e in
              fun ctx ->
                Aggregate.read1 agg ~node:ctx.node (index_exn a.acc_agg "1st" (ce ctx)) ~field
          | [ e1; e2 ] ->
              let c1 = cexpr e1 and c2 = cexpr e2 in
              fun ctx ->
                Aggregate.read2 agg ~node:ctx.node
                  (index_exn a.acc_agg "1st" (c1 ctx))
                  (index_exn a.acc_agg "2nd" (c2 ctx))
                  ~field
          | _ -> assert false)
      | Binop (And, l, r) ->
          let cl = cexpr l and cr = cexpr r in
          fun ctx -> if truthy (cl ctx) then of_bool (truthy (cr ctx)) else 0.0
      | Binop (Or, l, r) ->
          let cl = cexpr l and cr = cexpr r in
          fun ctx -> if truthy (cl ctx) then 1.0 else of_bool (truthy (cr ctx))
      | Binop (op, l, r) -> (
          let cl = cexpr l and cr = cexpr r in
          match op with
          | Add -> fun ctx -> cl ctx +. cr ctx
          | Sub -> fun ctx -> cl ctx -. cr ctx
          | Mul -> fun ctx -> cl ctx *. cr ctx
          | Div -> fun ctx -> cl ctx /. cr ctx
          | Mod -> fun ctx -> Float.rem (cl ctx) (cr ctx)
          | Lt -> fun ctx -> of_bool (cl ctx < cr ctx)
          | Le -> fun ctx -> of_bool (cl ctx <= cr ctx)
          | Gt -> fun ctx -> of_bool (cl ctx > cr ctx)
          | Ge -> fun ctx -> of_bool (cl ctx >= cr ctx)
          | Eq -> fun ctx -> of_bool (cl ctx = cr ctx)
          | Ne -> fun ctx -> of_bool (cl ctx <> cr ctx)
          | And | Or -> assert false)
      | Unop (Neg, e) ->
          let ce = cexpr e in
          fun ctx -> -.ce ctx
      | Unop (Not, e) ->
          let ce = cexpr e in
          fun ctx -> of_bool (not (truthy (ce ctx)))
      | Intrinsic (name, args) -> (
          let cargs = List.map cexpr args in
          match (name, cargs) with
          | "sqrt", [ a ] -> fun ctx -> sqrt (a ctx)
          | "abs", [ a ] -> fun ctx -> Float.abs (a ctx)
          | "floor", [ a ] -> fun ctx -> Float.floor (a ctx)
          | "min", [ a; b ] -> fun ctx -> Float.min (a ctx) (b ctx)
          | "max", [ a; b ] -> fun ctx -> Float.max (a ctx) (b ctx)
          | "noise", [ a; b ] -> fun ctx -> noise (a ctx) (b ctx)
          | _ -> raise (Runtime_error ("unknown intrinsic " ^ name)))
    in
    let rec cstmts l =
      let cs = List.map cstmt l in
      fun ctx -> List.iter (fun c -> c ctx) cs
    and cstmt = function
      | Slet (x, e) | Sassign (x, e) ->
          let s = slot_of slots x and ce = cexpr e in
          fun ctx -> ctx.locals.(s) <- ce ctx
      | Sstore (a, e) ->
          let agg = Hashtbl.find aggs a.acc_agg in
          let decl = sema.Sema.agg_of_name a.acc_agg in
          let field = field_of decl a.acc_field in
          let ce = cexpr e in
          (match a.acc_idx with
          | [ e1 ] ->
              let c1 = cexpr e1 in
              fun ctx ->
                Aggregate.write1 agg ~node:ctx.node
                  (index_exn a.acc_agg "1st" (c1 ctx))
                  ~field (ce ctx)
          | [ e1; e2 ] ->
              let c1 = cexpr e1 and c2 = cexpr e2 in
              fun ctx ->
                Aggregate.write2 agg ~node:ctx.node
                  (index_exn a.acc_agg "1st" (c1 ctx))
                  (index_exn a.acc_agg "2nd" (c2 ctx))
                  ~field (ce ctx)
          | _ -> assert false)
      | Sif (c, t, e) ->
          let cc = cexpr c and ct = cstmts t and ce = cstmts e in
          fun ctx -> if truthy (cc ctx) then ct ctx else ce ctx
      | Swhile (c, b) ->
          let cc = cexpr c and cb = cstmts b in
          fun ctx ->
            while truthy (cc ctx) do
              cb ctx
            done
      | Sfor (init, c, step, b) ->
          let ci = cstmt init and cc = cexpr c and cs = cstmt step and cb = cstmts b in
          fun ctx ->
            ci ctx;
            while truthy (cc ctx) do
              cb ctx;
              cs ctx
            done
      | Scall _ | Sphase _ ->
          (* handled by the main-level driver, not inside bodies *)
          assert false
    in
    cstmts body
  in

  (* Parallel functions. *)
  let pfun_procs = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let slots = { names = [] } in
      let proc = compile_body slots f.pf_body in
      Hashtbl.replace pfun_procs f.pf_name
        (sema.Sema.parallel_agg f.pf_name, proc, List.length slots.names))
    sema.Sema.prog.pfuns;
  (aggs, pfun_procs, compile_body)

let run_call env name =
  let pagg, proc, nslots = Hashtbl.find env.pfun_procs name in
  let agg = Hashtbl.find env.aggs pagg in
  let ctx = { node = 0; p0 = 0; p1 = 0; locals = Array.make (max 1 nslots) 0.0 } in
  match Array.length (Aggregate.dims agg) with
  | 1 ->
      Runtime.parallel_for_1d env.rt agg (fun ~node ~i ->
          ctx.node <- node;
          ctx.p0 <- i;
          proc ctx)
  | _ ->
      Runtime.parallel_for_2d env.rt agg (fun ~node ~i ~j ->
          ctx.node <- node;
          ctx.p0 <- i;
          ctx.p1 <- j;
          proc ctx)

let load rt compiled =
  let aggs, pfun_procs, compile_body = compile_program rt compiled in
  let placement = compiled.Compile.placement in
  let phases = Hashtbl.create 8 in
  for pid = 0 to placement.Placement.num_phases - 1 do
    Hashtbl.replace phases pid
      (Runtime.make_phase rt ~name:(Printf.sprintf "cstar-phase-%d" pid) ~scheduled:true)
  done;
  (* Compile main: scalar statements and control flow become closures; calls
     and phase regions become explicit driver actions. *)
  let slots = { names = [] } in
  let rec cmain stmts =
    let parts = List.map cstmt stmts in
    fun env ctx -> List.iter (fun p -> p env ctx) parts
  and cstmt stmt =
    match stmt with
    | Slet _ | Sassign _ | Sstore _ ->
        let c = compile_body slots [ stmt ] in
        fun _env ctx -> c ctx
    | Sif (c, t, e) ->
        let cc = compile_body_expr c and ct = cmain t and ce = cmain e in
        fun env ctx -> if truthy (cc ctx) then ct env ctx else ce env ctx
    | Swhile (c, b) ->
        let cc = compile_body_expr c and cb = cmain b in
        fun env ctx ->
          while truthy (cc ctx) do
            cb env ctx
          done
    | Sfor (init, c, step, b) ->
        let ci = compile_body slots [ init ]
        and cc = compile_body_expr c
        and cs = compile_body slots [ step ]
        and cb = cmain b in
        fun env ctx ->
          ci ctx;
          while truthy (cc ctx) do
            cb env ctx;
            cs ctx
          done
    | Scall f -> fun env _ctx -> run_call env f
    | Sphase (pid, body) ->
        let cb = cmain body in
        fun env ctx ->
          Runtime.phase_region env.rt (Hashtbl.find env.phases pid) (fun () -> cb env ctx)
  and compile_body_expr e =
    (* Reuse the body compiler for a bare expression via a synthetic local
       ("%cond" cannot clash with source identifiers). *)
    let tmp = "%cond" in
    let c = compile_body slots [ Slet (tmp, e) ] in
    let slot = slot_of slots tmp in
    fun ctx ->
      c ctx;
      ctx.locals.(slot)
  in
  let main_proc = cmain placement.Placement.placed_main in
  let env =
    {
      rt;
      compiled;
      aggs;
      phases;
      pfun_procs;
      main_proc = (fun _ -> ());
      main_slots = 0;
    }
  in
  let nslots = List.length slots.names in
  {
    env with
    main_proc =
      (fun ctx ->
        main_proc env ctx);
    main_slots = nslots;
  }

let aggregate env name =
  match Hashtbl.find_opt env.aggs name with
  | Some a -> a
  | None -> raise (Runtime_error ("unknown aggregate " ^ name))

let run env =
  let ctx = { node = 0; p0 = 0; p1 = 0; locals = Array.make (max 1 env.main_slots) 0.0 } in
  env.main_proc ctx

let run_pfun env name =
  if not (Hashtbl.mem env.pfun_procs name) then
    raise (Runtime_error ("unknown parallel function " ^ name));
  run_call env name
