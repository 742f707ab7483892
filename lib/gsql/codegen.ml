module Rts = Gigascope_rts
module Value = Rts.Value
module Ty = Rts.Ty
module Schema = Rts.Schema
module Func = Rts.Func
module Order_prop = Rts.Order_prop

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

type params = (string, Value.t) Hashtbl.t

(* ---------------- value-level operator semantics ----------------------- *)

let as_ints a b =
  match (a, b) with
  | (Value.Int x | Value.Ip x), (Value.Int y | Value.Ip y) -> Some (x, y)
  | _ -> None

let as_floats a b =
  match (Value.to_float a, Value.to_float b) with
  | Some x, Some y -> Some (x, y)
  | _ -> None

let arith op a b =
  match (op, as_ints a b) with
  | Ast.Add, Some (x, y) -> Some (Value.Int (x + y))
  | Ast.Sub, Some (x, y) -> Some (Value.Int (x - y))
  | Ast.Mul, Some (x, y) -> Some (Value.Int (x * y))
  | Ast.Div, Some (x, y) -> if y = 0 then None else Some (Value.Int (x / y))
  | Ast.Mod, Some (x, y) -> if y = 0 then None else Some (Value.Int (x mod y))
  | Ast.Band, Some (x, y) -> Some (Value.Int (x land y))
  | Ast.Bor, Some (x, y) -> Some (Value.Int (x lor y))
  | Ast.Shl, Some (x, y) -> Some (Value.Int (x lsl y))
  | Ast.Shr, Some (x, y) -> Some (Value.Int (x lsr y))
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), None -> (
      match (op, as_floats a b) with
      | Ast.Add, Some (x, y) -> Some (Value.Float (x +. y))
      | Ast.Sub, Some (x, y) -> Some (Value.Float (x -. y))
      | Ast.Mul, Some (x, y) -> Some (Value.Float (x *. y))
      | Ast.Div, Some (x, y) -> if y = 0.0 then None else Some (Value.Float (x /. y))
      | _ -> None)
  | _ -> None

(* Ip and Int compare as numbers; the checker allowed the mix. *)
let normalize_pair a b =
  match (a, b) with
  | Value.Ip x, Value.Int _ -> (Value.Int x, b)
  | Value.Int _, Value.Ip y -> (a, Value.Int y)
  | _ -> (a, b)

let compare_vals op a b =
  let a, b = normalize_pair a b in
  let c = Value.compare a b in
  let r =
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | _ -> false
  in
  Some (Value.Bool r)

(* ---------------- expression compilation ------------------------------- *)

let rec compile_expr ~params (e : Expr_ir.t) =
  match e with
  | Expr_ir.Const v ->
      let r = Some v in
      Ok (fun _ -> r)
  | Expr_ir.Field (i, _) -> Ok (fun tup -> if i < Array.length tup then Some tup.(i) else None)
  | Expr_ir.Param (name, _) -> Ok (fun _ -> Hashtbl.find_opt params name)
  | Expr_ir.Unop (Ast.Not, a) ->
      let* fa = compile_expr ~params a in
      Ok
        (fun tup ->
          match fa tup with
          | Some (Value.Bool b) -> Some (Value.Bool (not b))
          | _ -> None)
  | Expr_ir.Unop (Ast.Neg, a) ->
      let* fa = compile_expr ~params a in
      Ok
        (fun tup ->
          match fa tup with
          | Some (Value.Int i) -> Some (Value.Int (-i))
          | Some (Value.Float f) -> Some (Value.Float (-.f))
          | _ -> None)
  | Expr_ir.Binop (Ast.And, a, b, _) ->
      let* fa = compile_expr ~params a in
      let* fb = compile_expr ~params b in
      Ok
        (fun tup ->
          match fa tup with
          | Some v when not (Value.is_truthy v) -> Some (Value.Bool false)
          | Some _ -> (
              match fb tup with
              | Some w -> Some (Value.Bool (Value.is_truthy w))
              | None -> None)
          | None -> None)
  | Expr_ir.Binop (Ast.Or, a, b, _) ->
      let* fa = compile_expr ~params a in
      let* fb = compile_expr ~params b in
      Ok
        (fun tup ->
          match fa tup with
          | Some v when Value.is_truthy v -> Some (Value.Bool true)
          | Some _ -> (
              match fb tup with
              | Some w -> Some (Value.Bool (Value.is_truthy w))
              | None -> None)
          | None -> None)
  | Expr_ir.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b, _) ->
      let* fa = compile_expr ~params a in
      let* fb = compile_expr ~params b in
      Ok
        (fun tup ->
          match (fa tup, fb tup) with
          | Some va, Some vb -> compare_vals op va vb
          | _ -> None)
  | Expr_ir.Binop (op, a, b, _) ->
      let* fa = compile_expr ~params a in
      let* fb = compile_expr ~params b in
      Ok
        (fun tup ->
          match (fa tup, fb tup) with
          | Some va, Some vb -> arith op va vb
          | _ -> None)
  | Expr_ir.Call (f, args) ->
      (* Instantiate handles now: the expensive preprocessing of
         pass-by-handle parameters happens once per query instance. *)
      let handle_value idx =
        match List.nth_opt args idx with
        | Some (Expr_ir.Const v) -> Ok v
        | Some (Expr_ir.Param (name, _)) -> (
            match Hashtbl.find_opt params name with
            | Some v -> Ok v
            | None -> err "function %s: handle parameter $%s has no value" f.Func.name name)
        | _ -> err "function %s: handle argument %d is not a literal" f.Func.name idx
      in
      let rec handles acc = function
        | [] -> Ok (List.rev acc)
        | idx :: rest ->
            let* v = handle_value idx in
            handles (v :: acc) rest
      in
      let* handle_values = handles [] f.Func.handle_args in
      let* impl = f.Func.instantiate handle_values in
      let rec compile_args acc = function
        | [] -> Ok (List.rev acc)
        | a :: rest ->
            let* fa = compile_expr ~params a in
            compile_args (fa :: acc) rest
      in
      let* arg_fns = compile_args [] args in
      let arg_fns = Array.of_list arg_fns in
      let n = Array.length arg_fns in
      Ok
        (fun tup ->
          let vals = Array.make n Value.Null in
          let ok = ref true in
          Array.iteri
            (fun i fa ->
              match fa tup with
              | Some v -> vals.(i) <- v
              | None -> ok := false)
            arg_fns;
          if !ok then impl vals else None)

(* ---------------- typed compilation ----------------------------------- *)

(* Predicates and aggregate keys run once per packet, so their
   comparisons, and/or/not and integer arithmetic over Int/Ip operands
   compile to closures over unboxed ints and bools — the paper's LFTAs
   test packet fields as plain integers. Each typed closure computes
   exactly what the generic closure of the same node would: whenever it
   cannot decide (a Null or non-int operand at run time, division by
   zero) it raises [Not_int], and the enclosing comparison or key answers
   with its generic [compile_expr] closure for that tuple instead. *)

exception Not_int

(* A boolean subexpression has no value ([None] from its generic
   closure); the predicate as a whole is then false. *)
exception No_value

let is_arith = function
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor | Ast.Shl | Ast.Shr -> true
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or -> false

let int_arith op (fa : Value.t array -> int) (fb : Value.t array -> int) =
  match op with
  | Ast.Add -> fun tup -> fa tup + fb tup
  | Ast.Sub -> fun tup -> fa tup - fb tup
  | Ast.Mul -> fun tup -> fa tup * fb tup
  | Ast.Div ->
      fun tup ->
        let x = fa tup in
        let y = fb tup in
        if y = 0 then raise_notrace Not_int else x / y
  | Ast.Mod ->
      fun tup ->
        let x = fa tup in
        let y = fb tup in
        if y = 0 then raise_notrace Not_int else x mod y
  | Ast.Band -> fun tup -> fa tup land fb tup
  | Ast.Bor -> fun tup -> fa tup lor fb tup
  | Ast.Shl -> fun tup -> fa tup lsl fb tup
  | Ast.Shr -> fun tup -> fa tup lsr fb tup
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
      invalid_arg "Codegen.int_arith"

(* [Some f] when [e] is integer arithmetic over Int/Ip fields, parameters
   and constants: [f tup] is the int inside the generic closure's
   [Some (Int _ | Ip _)], or raises [Not_int]. *)
let rec compile_int ~params (e : Expr_ir.t) =
  match e with
  | Expr_ir.Const (Value.Int x | Value.Ip x) -> Some (fun _ -> x)
  | Expr_ir.Field (i, (Ty.Int | Ty.Ip)) ->
      Some
        (fun tup ->
          if i < Array.length tup then
            match Array.unsafe_get tup i with
            | Value.Int x | Value.Ip x -> x
            | _ -> raise_notrace Not_int
          else raise_notrace Not_int)
  | Expr_ir.Param (name, (Ty.Int | Ty.Ip)) ->
      Some
        (fun _ ->
          match Hashtbl.find_opt params name with
          | Some (Value.Int x | Value.Ip x) -> x
          | _ -> raise_notrace Not_int)
  | Expr_ir.Binop (op, a, b, _) when is_arith op -> (
      match (compile_int ~params a, compile_int ~params b) with
      | Some fa, Some fb -> Some (int_arith op fa fb)
      | _ -> None)
  | _ -> None

let int_compare op (fa : Value.t array -> int) (fb : Value.t array -> int) =
  match op with
  | Ast.Eq -> fun tup -> fa tup = fb tup
  | Ast.Ne -> fun tup -> fa tup <> fb tup
  | Ast.Lt -> fun tup -> fa tup < fb tup
  | Ast.Le -> fun tup -> fa tup <= fb tup
  | Ast.Gt -> fun tup -> fa tup > fb tup
  | Ast.Ge -> fun tup -> fa tup >= fb tup
  | _ -> invalid_arg "Codegen.int_compare"

(* What a boolean position makes of a value: and/or and the predicate
   itself take its truthiness; [not] takes only a Bool. *)
type bool_ctx = Truthy | Strict

let bool_of_value ctx v =
  match (v, ctx) with
  | Value.Bool b, _ -> b
  | v, Truthy -> Value.is_truthy v
  | _, Strict -> raise_notrace No_value

let bool_of_option ctx = function Some v -> bool_of_value ctx v | None -> raise_notrace No_value

(* [f tup] is [bool_of_option ctx (generic tup)], or raises [No_value]. *)
let rec compile_bool ~params ctx (e : Expr_ir.t) =
  match e with
  | Expr_ir.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b, _) -> (
      match (compile_int ~params a, compile_int ~params b) with
      | Some fa, Some fb ->
          let* generic = compile_expr ~params e in
          let typed = int_compare op fa fb in
          Ok
            (fun tup ->
              match typed tup with
              | r -> r
              | exception Not_int -> bool_of_option ctx (generic tup))
      | _ -> compile_bool_leaf ~params ctx e)
  | Expr_ir.Binop (Ast.And, a, b, _) ->
      let* fa = compile_bool ~params Truthy a in
      let* fb = compile_bool ~params Truthy b in
      Ok (fun tup -> fa tup && fb tup)
  | Expr_ir.Binop (Ast.Or, a, b, _) ->
      let* fa = compile_bool ~params Truthy a in
      let* fb = compile_bool ~params Truthy b in
      Ok (fun tup -> fa tup || fb tup)
  | Expr_ir.Unop (Ast.Not, a) ->
      let* fa = compile_bool ~params Strict a in
      Ok (fun tup -> not (fa tup))
  | Expr_ir.Field (i, _) ->
      Ok
        (fun tup ->
          if i < Array.length tup then bool_of_value ctx (Array.unsafe_get tup i)
          else raise_notrace No_value)
  | _ -> compile_bool_leaf ~params ctx e

and compile_bool_leaf ~params ctx e =
  let* generic = compile_expr ~params e in
  Ok (fun tup -> bool_of_option ctx (generic tup))

let compile_pred ~params e =
  let* f = compile_bool ~params Truthy e in
  Ok (fun tup -> match f tup with b -> b | exception No_value -> false)

let compile_key ~params (e : Expr_ir.t) =
  let* generic = compile_expr ~params e in
  match (e, compile_int ~params e) with
  (* arithmetic always yields Int; a bare field or constant keeps its own
     constructor (Ip stays Ip), which the generic closure already does *)
  | Expr_ir.Binop _, Some f ->
      Ok (fun tup -> match f tup with n -> Some (Value.Int n) | exception Not_int -> generic tup)
  | _ -> Ok generic

(* ---------------- operator construction -------------------------------- *)

type source_binder = {
  bind_source :
    interface:string -> protocol:string -> nic:Split.nic_hint option -> (string, string) result;
}

type instance = {
  inst_name : string;
  out_node : Rts.Node.t;
  node_names : string list;
  inst_params : params;
  lfta_aggs : (string * Rts.Lfta_aggregate.t) list;
  hfta_aggs : (string * Rts.Aggregate.t) list;
  merges : (string * Rts.Merge_op.t) list;
  joins : (string * Rts.Join_op.t) list;
}

let set_param inst name v = Hashtbl.replace inst.inst_params name v

let compile_items ?(compile = compile_expr) ~params items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (e, _) :: rest ->
        let* f = compile ~params e in
        go (f :: acc) rest
  in
  let* fns = go [] items in
  Ok (Array.of_list fns)

(* Projection closure: None when any partial item misses. *)
let projector item_fns =
  let n = Array.length item_fns in
  fun tup ->
    let out = Array.make n Value.Null in
    let ok = ref true in
    for i = 0 to n - 1 do
      match item_fns.(i) tup with
      | Some v -> out.(i) <- v
      | None -> ok := false
    done;
    if !ok then Some out else None

(* Identity-projected ordered input fields, for punctuation translation. *)
let punct_map_of_items ~in_schema items =
  List.concat
    (List.mapi
       (fun out_idx (e, _) ->
         match e with
         | Expr_ir.Field (i, _)
           when i < Schema.arity in_schema
                && Order_prop.usable_for_window (Schema.field_at in_schema i).Schema.order ->
             [(i, out_idx)]
         | _ -> [])
       items)

(* Translate a punctuation bound through a single-field monotone key
   expression by evaluating it on a synthetic tuple. *)
let bound_translator ~params key_expr ~in_field ~in_arity =
  match compile_expr ~params key_expr with
  | Error _ -> fun _ -> None
  | Ok f ->
      fun bound ->
        let synthetic = Array.make in_arity Value.Null in
        if in_field < in_arity then synthetic.(in_field) <- bound;
        f synthetic

let agg_specs ~params (aggs : Plan.agg_call list) =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (c : Plan.agg_call) :: rest ->
        let* arg =
          match c.Plan.arg with
          | None -> Ok None
          | Some e ->
              let* f = compile_expr ~params e in
              Ok (Some f)
        in
        go ({ Rts.Agg_fn.kind = c.Plan.kind; arg } :: acc) rest
  in
  go [] aggs

let make_agg_config ~params ~sample_seed:_ (a : Plan.agg_body) =
  let in_schema = Plan.input_schema a.Plan.agg_input in
  let in_arity = Schema.arity in_schema in
  let* pred =
    match a.Plan.agg_pred with
    | None -> Ok None
    | Some p ->
        let* f = compile_pred ~params p in
        Ok (Some f)
  in
  let* key_fns = compile_items ~compile:compile_key ~params a.Plan.keys in
  let* aggs = agg_specs ~params a.Plan.aggs in
  let* item_fns = compile_items ~params a.Plan.agg_items in
  let* having =
    match a.Plan.having with
    | None -> Ok None
    | Some h ->
        let* p = compile_pred ~params h in
        Ok (Some p)
  in
  let n_items = Array.length item_fns in
  let assemble ~keys ~aggs:agg_vals =
    let virt = Array.append keys agg_vals in
    let out = Array.make n_items Value.Null in
    for i = 0 to n_items - 1 do
      match item_fns.(i) virt with
      | Some v -> out.(i) <- v
      | None -> out.(i) <- Value.Null
    done;
    out
  in
  let epoch_out =
    (* where does the epoch key land in the output? an item that is exactly
       Field(epoch index in the virtual tuple) *)
    match a.Plan.epoch with
    | None -> None
    | Some ek ->
        let rec find i = function
          | [] -> None
          | (Expr_ir.Field (j, _), _) :: _ when j = ek -> Some i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 a.Plan.agg_items
  in
  let punct_in =
    match (a.Plan.epoch, a.Plan.epoch_in_field) with
    | Some ek, Some in_field ->
        let key_expr, _ = List.nth a.Plan.keys ek in
        Some (in_field, bound_translator ~params key_expr ~in_field ~in_arity)
    | _ -> None
  in
  Ok
    {
      Rts.Aggregate.pred;
      keys = key_fns;
      epoch_key = a.Plan.epoch;
      direction = a.Plan.epoch_dir;
      band = a.Plan.epoch_band;
      aggs;
      assemble;
      having;
      epoch_out;
      punct_in;
    }

(* A shard replica's select appends a private "__seq" column the
   reunification merge orders on. Tuples advance the merge's bound on
   that column, but a quiet replica must too: whenever the replica sees
   punctuation, re-publish it as a bound on the sequence column —
   [next_seq ()] is the next index this replica could ever assign, hence
   a firm lower bound on everything it will still emit. *)
let shard_seq_wrap (op : Rts.Operator.t) ~seq_idx ~next_seq =
  let seq_punct ~emit = emit (Rts.Item.Punct [ (seq_idx, Value.Int (next_seq ())) ]) in
  let on_item ~input item ~emit =
    op.Rts.Operator.on_item ~input item ~emit;
    match item with Rts.Item.Punct _ -> seq_punct ~emit | _ -> ()
  in
  let on_batch =
    match op.Rts.Operator.on_batch with
    | None -> None
    | Some f ->
        Some
          (fun ~input batch ~emit ->
            f ~input batch ~emit;
            match Rts.Batch.ctrl batch with
            | Some (Rts.Item.Punct _) -> seq_punct ~emit
            | _ -> ())
  in
  { op with Rts.Operator.on_item; on_batch }

let make_op ~params ~seed (phys : Split.phys_node) =
  match phys.Split.pbody with
  | Plan.Select { sel_input; sel_pred; sel_items; sample } ->
      let in_schema = Plan.input_schema sel_input in
      let* pred =
        match sel_pred with
        | None -> Ok None
        | Some p ->
            let* f = compile_pred ~params p in
            Ok (Some f)
      in
      let* pred =
        match sample with
        | None -> Ok pred
        | Some rate ->
            let rng = Gigascope_util.Prng.create seed in
            let sampled tup =
              (match pred with None -> true | Some p -> p tup)
              && Gigascope_util.Prng.float rng 1.0 < rate
            in
            Ok (Some sampled)
      in
      let* item_fns = compile_items ~params sel_items in
      let punct_map = punct_map_of_items ~in_schema sel_items in
      let rejected = Gigascope_obs.Metrics.Counter.make () in
      let op = Rts.Select_op.make ~rejected ?pred ~project:(projector item_fns) ~punct_map () in
      let op =
        match phys.Split.pshard with
        | Some { Split.sseq = Some (seq_idx, next_seq); _ } -> shard_seq_wrap op ~seq_idx ~next_seq
        | _ -> op
      in
      Ok (op, `Select rejected)
  | Plan.Agg a ->
      let* cfg = make_agg_config ~params ~sample_seed:seed a in
      if phys.Split.pkind = Rts.Node.Lfta then begin
        let lcfg =
          {
            Rts.Lfta_aggregate.table_bits = (if phys.Split.ptable_bits > 0 then phys.Split.ptable_bits else 12);
            pred = cfg.Rts.Aggregate.pred;
            keys = cfg.Rts.Aggregate.keys;
            epoch_key = cfg.Rts.Aggregate.epoch_key;
            direction = cfg.Rts.Aggregate.direction;
            band = cfg.Rts.Aggregate.band;
            aggs = cfg.Rts.Aggregate.aggs;
            assemble =
              (fun ~keys ~aggs -> cfg.Rts.Aggregate.assemble ~keys ~aggs);
            punct_in = cfg.Rts.Aggregate.punct_in;
            epoch_out = cfg.Rts.Aggregate.epoch_out;
          }
        in
        let agg = Rts.Lfta_aggregate.make lcfg in
        Ok (Rts.Lfta_aggregate.op agg, `Lfta_agg agg)
      end
      else begin
        let agg = Rts.Aggregate.make cfg in
        Ok (Rts.Aggregate.op agg, `Hfta_agg agg)
      end
  | Plan.Join j ->
      let left_schema = Plan.input_schema j.Plan.left in
      let n_left = Schema.arity left_schema in
      let* pred_fn =
        match j.Plan.join_pred with
        | None -> Ok (fun _ -> true)
        | Some p -> compile_pred ~params p
      in
      let* item_fns = compile_items ~params j.Plan.join_items in
      let project = projector item_fns in
      let find_identity target =
        let rec go i = function
          | [] -> None
          | (Expr_ir.Field (k, _), _) :: _ when k = target -> Some i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 j.Plan.join_items
      in
      let cfg =
        {
          Rts.Join_op.output_mode =
            (if j.Plan.ordered_output then Rts.Join_op.Ordered_output
             else Rts.Join_op.Banded_output);
          left_idx = j.Plan.left_ord;
          right_idx = j.Plan.right_ord;
          lo = j.Plan.win_lo;
          hi = j.Plan.win_hi;
          pred = (fun l r -> pred_fn (Array.append l r));
          assemble = (fun l r -> project (Array.append l r));
          left_out = find_identity j.Plan.left_ord;
          right_out = find_identity (n_left + j.Plan.right_ord);
        }
      in
      let join = Rts.Join_op.make cfg in
      Ok (Rts.Join_op.op join, `Join join)
  | Plan.Merge m ->
      let schema = Plan.input_schema (List.hd m.Plan.merge_inputs) in
      let direction =
        match
          Order_prop.direction_of (Schema.field_at schema m.Plan.merge_field).Schema.order
        with
        | Some d -> d
        | None -> Order_prop.Asc
      in
      (* Monotone fields beyond the merge attribute survive the merge;
         republishing their bounds keeps operators keyed on them (e.g. an
         epoch aggregation downstream of a shard reunification) unblocked. *)
      let forward =
        List.concat
          (List.init (Schema.arity schema) (fun i ->
               if i = m.Plan.merge_field then []
               else
                 match (Schema.field_at schema i).Schema.order with
                 | Order_prop.Monotone d | Order_prop.Strict d -> [ (i, d) ]
                 | _ -> []))
      in
      let cfg =
        {
          Rts.Merge_op.n_inputs = List.length m.Plan.merge_inputs;
          ordered_idx = m.Plan.merge_field;
          direction;
        }
      in
      let merge = Rts.Merge_op.make ~forward cfg in
      Ok (Rts.Merge_op.op merge, `Merge merge)

let input_names ~binder (phys : Split.phys_node) =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Plan.From_protocol { interface; protocol; _ } :: rest ->
        let* name = binder.bind_source ~interface ~protocol ~nic:phys.Split.pnic in
        go (name :: acc) rest
    | Plan.From_stream { stream; _ } :: rest -> go (stream :: acc) rest
  in
  go [] (Plan.inputs_of_body phys.Split.pbody)

let install mgr ~source_binder ?(params = []) ?(seed = 0x6516) ?chan_capacity
    (split : Split.t) =
  let param_tbl : params = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace param_tbl k v) params;
  (* Check every declared parameter has a value when used in handles is
     deferred to expression compilation; here just install node by node. *)
  let reg = Rts.Manager.metrics mgr in
  (* Operator-specific cells attach once the node exists: the node name
     anchors the metric namespace. *)
  let register_op_metrics name stat =
    let pfx sub = Printf.sprintf "rts.node.%s.%s" name sub in
    match stat with
    | `Select rejected -> Gigascope_obs.Metrics.attach_counter reg (pfx "select.rejected") rejected
    | `Lfta_agg agg -> Rts.Lfta_aggregate.register_metrics agg reg ~prefix:(pfx "lfta")
    | `Hfta_agg agg -> Rts.Aggregate.register_metrics agg reg ~prefix:(pfx "agg")
    | `Join join -> Rts.Join_op.register_metrics join reg ~prefix:(pfx "join")
    | `Merge merge -> Rts.Merge_op.register_metrics merge reg ~prefix:(pfx "merge")
  in
  let rec go acc_names acc_stats = function
    | [] -> Ok (List.rev acc_names, acc_stats)
    | (phys : Split.phys_node) :: rest ->
        let* op, stat = make_op ~params:param_tbl ~seed phys in
        let* inputs = input_names ~binder:source_binder phys in
        (* Certified-burst auto-sizing: the engine supplies the input
           ring capacity this node needs to absorb its upstream's
           largest single-step emission (an LFTA table flush, a merge
           drain). The manager only ever grows past its default. *)
        let capacity =
          match chan_capacity with Some f -> f phys.Split.pname | None -> None
        in
        let* node =
          Rts.Manager.add_query_node_sized mgr ~capacity ~name:phys.Split.pname
            ~kind:phys.Split.pkind ~schema:phys.Split.pschema ~inputs ~op
        in
        Rts.Node.set_placement node phys.Split.pplace;
        Rts.Node.set_shard node (Option.map (fun s -> s.Split.sshard) phys.Split.pshard);
        register_op_metrics phys.Split.pname stat;
        go (phys.Split.pname :: acc_names) ((phys.Split.pname, stat) :: acc_stats) rest
  in
  let* node_names, stats = go [] [] split.Split.phys in
  let inst_name = split.Split.plan.Plan.name in
  match Rts.Manager.find mgr inst_name with
  | None -> err "codegen: query node %s vanished" inst_name
  | Some out_node ->
      let pick f = List.filter_map (fun (n, s) -> f n s) stats in
      Ok
        {
          inst_name;
          out_node;
          node_names;
          inst_params = param_tbl;
          lfta_aggs = pick (fun n s -> match s with `Lfta_agg a -> Some (n, a) | _ -> None);
          hfta_aggs = pick (fun n s -> match s with `Hfta_agg a -> Some (n, a) | _ -> None);
          merges = pick (fun n s -> match s with `Merge m -> Some (n, m) | _ -> None);
          joins = pick (fun n s -> match s with `Join j -> Some (n, j) | _ -> None);
        }
