(* Tests for the runtime system: values, schemas, ordering properties,
   operators (with offline oracles), the two-level aggregation equivalence,
   the stream manager, and the scheduler. *)

module Rts = Gigascope_rts
module Value = Rts.Value
module Ty = Rts.Ty
module Schema = Rts.Schema
module Item = Rts.Item
module Order_prop = Rts.Order_prop
module Agg_fn = Rts.Agg_fn
module Prng = Gigascope_util.Prng

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let vint i = Value.Int i

(* run an operator over a list of items, collecting emissions *)
let run_op ?(input = 0) op items =
  let out = ref [] in
  let emit item = out := item :: !out in
  List.iter (fun item -> op.Rts.Operator.on_item ~input item ~emit) items;
  List.rev !out

let tuples items = List.filter_map (function Item.Tuple t -> Some t | _ -> None) items

(* ------------------------------- Value --------------------------------- *)

let test_value_compare () =
  check Alcotest.bool "int order" true (Value.compare (vint 1) (vint 2) < 0);
  check Alcotest.bool "int/float mix" true (Value.compare (vint 2) (Value.Float 1.5) > 0);
  check Alcotest.bool "float/int equal" true (Value.compare (Value.Float 2.0) (vint 2) = 0);
  check Alcotest.bool "strings" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  check Alcotest.bool "null first" true (Value.compare Value.Null (vint 0) < 0)

let value_equal_hash_consistent =
  qtest "equal values hash equally" QCheck.(pair int int) (fun (a, b) ->
      let va = vint a and vb = vint b in
      (not (Value.equal va vb)) || Value.hash va = Value.hash vb)

(* Group_tbl's contract: [equal a b] implies [hash a = hash b], across
   constructors too — an Int equals the integral Float of its value. *)
let value_equal_implies_hash =
  let near_int =
    QCheck.Gen.(
      oneof
        [
          small_signed_int;
          map (fun k -> (1 lsl 53) + k) (int_range (-4) 4);
          map (fun k -> -(1 lsl 53) + k) (int_range (-4) 4);
          oneofl [ max_int; min_int; 0 ];
        ])
  in
  let gen_value =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Value.Int i) near_int;
          map (fun i -> Value.Float (float_of_int i)) near_int;
          map (fun i -> Value.Float (float_of_int i +. 0.5)) small_signed_int;
          oneofl [ Value.Float (-0.0); Value.Float nan; Value.Float infinity; Value.Null ];
          map (fun i -> Value.Ip i) small_nat;
          map (fun b -> Value.Bool b) bool;
        ])
  in
  let arb = QCheck.make ~print:(fun (a, b) -> Value.to_string a ^ " / " ^ Value.to_string b)
      QCheck.Gen.(pair gen_value gen_value) in
  qtest ~count:2000 "equal a b => hash a = hash b" arb (fun (a, b) ->
      (not (Value.equal a b))
      || (Value.hash a = Value.hash b
         && Value.hash_array [| a; b |] = Value.hash_array [| b; a |]))

let test_value_int_float_hash () =
  check Alcotest.bool "Int 1 = Float 1.0" true (Value.equal (vint 1) (Value.Float 1.0));
  check Alcotest.int "hash Int 1 = hash Float 1.0" (Value.hash (vint 1))
    (Value.hash (Value.Float 1.0));
  check Alcotest.int "hash Int 0 = hash Float -0.0" (Value.hash (vint 0))
    (Value.hash (Value.Float (-0.0)))

let test_value_truthy () =
  check Alcotest.bool "bool true" true (Value.is_truthy (Value.Bool true));
  check Alcotest.bool "zero" false (Value.is_truthy (vint 0));
  check Alcotest.bool "nonzero" true (Value.is_truthy (vint 3));
  check Alcotest.bool "null" false (Value.is_truthy Value.Null);
  check Alcotest.bool "string" false (Value.is_truthy (Value.Str "x"))

let test_value_arrays () =
  let a = [| vint 1; Value.Str "x" |] and b = [| vint 1; Value.Str "x" |] in
  check Alcotest.bool "array equal" true (Value.equal_array a b);
  check Alcotest.bool "array hash equal" true (Value.hash_array a = Value.hash_array b);
  check Alcotest.bool "length mismatch" false (Value.equal_array a [| vint 1 |])

(* ----------------------------- Order_prop ------------------------------ *)

let test_order_weaken () =
  let open Order_prop in
  check Alcotest.string "strict+strict" (to_string (Strict Asc)) (to_string (weaken (Strict Asc) (Strict Asc)));
  check Alcotest.string "strict+monotone" (to_string (Monotone Asc))
    (to_string (weaken (Strict Asc) (Monotone Asc)));
  check Alcotest.string "banded widest" (to_string (Banded (Asc, 30.0)))
    (to_string (weaken (Banded (Asc, 30.0)) (Monotone Asc)));
  check Alcotest.string "opposite directions" (to_string Unordered)
    (to_string (weaken (Monotone Asc) (Monotone Desc)));
  check Alcotest.string "unordered absorbs" (to_string Unordered)
    (to_string (weaken Unordered (Strict Asc)))

let test_order_usability () =
  let open Order_prop in
  check Alcotest.bool "monotone usable" true (usable_for_epoch (Monotone Asc));
  check Alcotest.bool "banded usable" true (usable_for_window (Banded (Asc, 5.0)));
  check Alcotest.bool "nonrepeating not usable" false (usable_for_epoch Nonrepeating);
  check Alcotest.bool "in-group not usable" false (usable_for_window (In_group (["a"], Asc)))

let test_order_arithmetic_imputation () =
  let open Order_prop in
  check Alcotest.string "strict loses strictness" (to_string (Monotone Asc))
    (to_string (imputed_through_arithmetic (Strict Asc) ~monotone_fn:true));
  check Alcotest.string "non-monotone fn destroys" (to_string Unordered)
    (to_string (imputed_through_arithmetic (Strict Asc) ~monotone_fn:false))

(* ------------------------------- Schema -------------------------------- *)

let mk_schema () =
  Schema.make
    [
      { Schema.name = "ts"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
      { Schema.name = "Port"; ty = Ty.Int; order = Order_prop.Unordered };
    ]

let test_schema_lookup () =
  let s = mk_schema () in
  check Alcotest.(option int) "case-insensitive" (Some 1) (Schema.field_index s "port");
  check Alcotest.(option int) "exact" (Some 0) (Schema.field_index s "ts");
  check Alcotest.(option int) "missing" None (Schema.field_index s "nope")

let test_schema_duplicates () =
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Schema.make: duplicate field X") (fun () ->
      ignore
        (Schema.make
           [
             { Schema.name = "x"; ty = Ty.Int; order = Order_prop.Unordered };
             { Schema.name = "X"; ty = Ty.Int; order = Order_prop.Unordered };
           ]))

let test_schema_concat () =
  let s = Schema.concat (mk_schema ()) (mk_schema ()) in
  check Alcotest.int "arity" 4 (Schema.arity s);
  check Alcotest.(option int) "suffixed clash" (Some 2) (Schema.field_index s "ts_2")

let test_schema_ordered_fields () =
  let s = mk_schema () in
  check Alcotest.int "one ordered field" 1 (List.length (Schema.ordered_fields s))

(* ----------------------------- Select op ------------------------------- *)

let test_select_filter_project () =
  let op =
    Rts.Select_op.make
      ~pred:(fun t -> Value.compare t.(1) (vint 10) > 0)
      ~project:(fun t -> Some [| t.(0) |])
      ~punct_map:[(0, 0)] ()
  in
  let items =
    [
      Item.Tuple [| vint 1; vint 5 |];
      Item.Tuple [| vint 2; vint 20 |];
      Item.Punct [(0, vint 2); (1, vint 99)];
      Item.Tuple [| vint 3; vint 30 |];
      Item.Eof;
    ]
  in
  let out = run_op op items in
  check Alcotest.int "two tuples pass" 2 (List.length (tuples out));
  (match List.nth out 1 with
  | Item.Punct [(0, Value.Int 2)] -> ()
  | _ -> Alcotest.fail "punct should translate field 0 only, dropping field 1");
  match List.rev out with Item.Eof :: _ -> () | _ -> Alcotest.fail "eof forwarded"

let test_select_partial_projection () =
  let op =
    Rts.Select_op.make
      ~project:(fun t -> if Value.is_truthy t.(0) then Some t else None)
      ~punct_map:[] ()
  in
  let out = run_op op [Item.Tuple [| vint 0 |]; Item.Tuple [| vint 1 |]; Item.Eof] in
  check Alcotest.int "partial projection discards" 1 (List.length (tuples out))

(* ------------------------------ Sample op ------------------------------ *)

let test_sample_extremes () =
  let none = Rts.Sample_op.make ~rate:0.0 ~seed:1 () in
  let all = Rts.Sample_op.make ~rate:1.0 ~seed:1 () in
  let input = List.init 100 (fun i -> Item.Tuple [| vint i |]) @ [Item.Eof] in
  check Alcotest.int "rate 0 keeps none" 0 (List.length (tuples (run_op none input)));
  check Alcotest.int "rate 1 keeps all" 100 (List.length (tuples (run_op all input)))

let test_sample_deterministic () =
  let input = List.init 200 (fun i -> Item.Tuple [| vint i |]) @ [Item.Eof] in
  let a = run_op (Rts.Sample_op.make ~rate:0.5 ~seed:9 ()) input in
  let b = run_op (Rts.Sample_op.make ~rate:0.5 ~seed:9 ()) input in
  check Alcotest.int "same seed same sample" (List.length (tuples a)) (List.length (tuples b));
  let n = List.length (tuples a) in
  check Alcotest.bool "roughly half" true (n > 70 && n < 130)

(* --------------------------- HFTA aggregation -------------------------- *)

(* group by (ts/10, key), count + sum(v); input ts nondecreasing *)
let agg_config ?(band = 0.0) ?having () =
  {
    Rts.Aggregate.pred = None;
    keys =
      [|
        (fun t -> match t.(0) with Value.Int ts -> Some (vint (ts / 10)) | _ -> None);
        (fun t -> Some t.(1));
      |];
    epoch_key = Some 0;
    direction = Order_prop.Asc;
    band;
    aggs =
      [|
        { Agg_fn.kind = Agg_fn.Count; arg = None };
        { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> Some t.(2)) };
      |];
    assemble = (fun ~keys ~aggs -> Array.append keys aggs);
    having;
    epoch_out = Some 0;
    punct_in = Some (0, fun v -> match v with Value.Int ts -> Some (vint (ts / 10)) | _ -> None);
  }

let mk_rows seed n =
  (* nondecreasing timestamps, few keys *)
  let rng = Prng.create seed in
  let ts = ref 0 in
  List.init n (fun _ ->
      ts := !ts + Prng.int rng 3;
      [| vint !ts; vint (Prng.int rng 4); vint (Prng.int rng 100) |])

let oracle rows =
  (* offline group-by: (ts/10, key) -> count, sum *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun row ->
      match (row.(0), row.(1), row.(2)) with
      | Value.Int ts, Value.Int k, Value.Int v ->
          let key = (ts / 10, k) in
          let c, s = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
          Hashtbl.replace tbl key (c + 1, s + v)
      | _ -> assert false)
    rows;
  tbl

let hfta_agg_matches_oracle =
  qtest ~count:100 "HFTA aggregation = offline group-by" QCheck.small_int (fun seed ->
      let rows = mk_rows seed 300 in
      let agg = Rts.Aggregate.make (agg_config ()) in
      let out =
        run_op (Rts.Aggregate.op agg) (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof])
      in
      let expected = oracle rows in
      let got = Hashtbl.create 16 in
      List.iter
        (fun t ->
          match (t.(0), t.(1), t.(2), t.(3)) with
          | Value.Int tb, Value.Int k, Value.Int c, Value.Int s -> Hashtbl.replace got (tb, k) (c, s)
          | _ -> ())
        (tuples out);
      Hashtbl.length got = Hashtbl.length expected
      && Hashtbl.fold (fun k v acc -> acc && Hashtbl.find_opt got k = Some v) expected true)

let test_agg_epoch_flushes_incrementally () =
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  let out1 = run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]] in
  check Alcotest.int "nothing emitted within epoch" 0 (List.length out1);
  let out2 = run_op op [Item.Tuple [| vint 15; vint 0; vint 1 |]] in
  check Alcotest.int "epoch advance flushes closed group" 1 (List.length (tuples out2));
  check Alcotest.int "one group open" 1 (Rts.Aggregate.open_groups agg)

let test_agg_output_epoch_order () =
  (* closed groups come out sorted by epoch key *)
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  let rows =
    [
      [| vint 5; vint 1; vint 0 |]; [| vint 12; vint 0; vint 0 |]; [| vint 25; vint 2; vint 0 |];
      [| vint 33; vint 1; vint 0 |];
    ]
  in
  let out = run_op op (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  let epochs =
    List.filter_map (fun t -> match t.(0) with Value.Int e -> Some e | _ -> None) (tuples out)
  in
  check Alcotest.(list int) "monotone epoch output" (List.sort compare epochs) epochs

let test_agg_punct_flush_and_translate () =
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  ignore (run_op op [Item.Tuple [| vint 5; vint 0; vint 7 |]]);
  let out = run_op op [Item.Punct [(0, vint 20)]] in
  check Alcotest.int "punct closes passed groups" 1 (List.length (tuples out));
  match List.rev out with
  | Item.Punct [(0, Value.Int 2)] :: _ -> ()
  | _ -> Alcotest.fail "output punct should carry translated bound 20/10=2"

let test_agg_having () =
  let having virt = match virt.(2) with Value.Int c -> c >= 2 | _ -> false in
  let agg = Rts.Aggregate.make (agg_config ~having ()) in
  let op = Rts.Aggregate.op agg in
  let rows = [[| vint 1; vint 0; vint 1 |]; [| vint 2; vint 0; vint 1 |]; [| vint 3; vint 1; vint 1 |]] in
  let out = run_op op (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  check Alcotest.int "having filters singleton group" 1 (List.length (tuples out))

let test_agg_banded_keeps_groups_open () =
  (* band 1 in epoch units: epoch e closes only when the frontier passes
     e + 1 *)
  let agg = Rts.Aggregate.make (agg_config ~band:1.0 ()) in
  let op = Rts.Aggregate.op agg in
  ignore (run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]]);
  let out = run_op op [Item.Tuple [| vint 15; vint 0; vint 1 |]] in
  check Alcotest.int "within band: no flush yet" 0 (List.length (tuples out));
  (* a late tuple for the old epoch still lands in its group *)
  ignore (run_op op [Item.Tuple [| vint 8; vint 0; vint 1 |]]);
  let out2 = run_op op [Item.Tuple [| vint 29; vint 0; vint 1 |]] in
  let flushed = tuples out2 in
  check Alcotest.int "band passed: old epoch flushed" 1 (List.length flushed);
  match (List.hd flushed).(2) with
  | Value.Int c -> check Alcotest.int "late tuple was counted" 2 c
  | _ -> Alcotest.fail "bad count"

let test_agg_partial_key_discards () =
  let cfg = agg_config () in
  let cfg =
    { cfg with Rts.Aggregate.keys = [| (fun _ -> None); (fun t -> Some t.(1)) |];
               epoch_key = None; epoch_out = None; punct_in = None }
  in
  let agg = Rts.Aggregate.make cfg in
  let out = run_op (Rts.Aggregate.op agg) [Item.Tuple [| vint 1; vint 2; vint 3 |]; Item.Eof] in
  check Alcotest.int "partial key discards tuple" 0 (List.length (tuples out))

let test_agg_no_epoch_flushes_at_eof_only () =
  let cfg = { (agg_config ()) with Rts.Aggregate.epoch_key = None; epoch_out = None; punct_in = None } in
  let agg = Rts.Aggregate.make cfg in
  let op = Rts.Aggregate.op agg in
  let out1 = run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]; Item.Tuple [| vint 500; vint 0; vint 1 |]] in
  check Alcotest.int "no epoch: nothing flushes" 0 (List.length out1);
  let out2 = run_op op [Item.Eof] in
  check Alcotest.int "eof flushes all" 2 (List.length (tuples out2))

let test_agg_flush_item () =
  let agg = Rts.Aggregate.make (agg_config ()) in
  let op = Rts.Aggregate.op agg in
  ignore (run_op op [Item.Tuple [| vint 5; vint 0; vint 1 |]]);
  let out = run_op op [Item.Flush] in
  check Alcotest.int "user flush empties groups" 1 (List.length (tuples out))

let test_agg_pred_filters () =
  let cfg = { (agg_config ()) with Rts.Aggregate.pred = Some (fun t -> Value.compare t.(2) (vint 50) > 0) } in
  let agg = Rts.Aggregate.make cfg in
  let op = Rts.Aggregate.op agg in
  let rows = [[| vint 1; vint 0; vint 10 |]; [| vint 2; vint 0; vint 90 |]] in
  let out = run_op op (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  match tuples out with
  | [t] -> (
      match t.(2) with
      | Value.Int c -> check Alcotest.int "only passing tuple counted" 1 c
      | _ -> Alcotest.fail "bad shape")
  | _ -> Alcotest.fail "expected one group"

(* --------------------- LFTA/HFTA two-level equivalence ------------------ *)

let two_level_equivalence =
  qtest ~count:60 "LFTA+HFTA split aggregation = single level"
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, bits) ->
      let rows = mk_rows seed 400 in
      let items = List.map (fun r -> Item.Tuple r) rows @ [Item.Eof] in
      let keys =
        [|
          (fun (t : Value.t array) -> match t.(0) with Value.Int ts -> Some (vint (ts / 10)) | _ -> None);
          (fun (t : Value.t array) -> Some t.(1));
        |]
      in
      let arg = Some (fun (t : Value.t array) -> Some t.(2)) in
      let aggs =
        [|
          { Agg_fn.kind = Agg_fn.Count; arg = None };
          { Agg_fn.kind = Agg_fn.Sum; arg };
          { Agg_fn.kind = Agg_fn.Min; arg };
          { Agg_fn.kind = Agg_fn.Max; arg };
        |]
      in
      let single =
        Rts.Aggregate.make
          {
            Rts.Aggregate.pred = None;
            keys;
            epoch_key = Some 0;
            direction = Order_prop.Asc;
            band = 0.0;
            aggs;
            assemble = (fun ~keys ~aggs -> Array.append keys aggs);
            having = None;
            epoch_out = Some 0;
            punct_in = None;
          }
      in
      let single_out = tuples (run_op (Rts.Aggregate.op single) items) in
      (* two level: a small direct-mapped LFTA emits partials; the HFTA
         recombines them (count -> sum of counts, etc.) *)
      let lfta =
        Rts.Lfta_aggregate.make
          {
            Rts.Lfta_aggregate.table_bits = bits;
            pred = None;
            keys;
            epoch_key = Some 0;
            direction = Order_prop.Asc;
            band = 0.0;
            aggs;
            assemble = (fun ~keys ~aggs -> Array.append keys aggs);
            punct_in = None;
            epoch_out = None;
          }
      in
      let partials = run_op (Rts.Lfta_aggregate.op lfta) items in
      let super =
        Rts.Aggregate.make
          {
            Rts.Aggregate.pred = None;
            keys = [| (fun t -> Some t.(0)); (fun t -> Some t.(1)) |];
            epoch_key = Some 0;
            direction = Order_prop.Asc;
            band = 0.0;
            aggs =
              [|
                { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> Some t.(2)) };
                { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun t -> Some t.(3)) };
                { Agg_fn.kind = Agg_fn.Min; arg = Some (fun t -> Some t.(4)) };
                { Agg_fn.kind = Agg_fn.Max; arg = Some (fun t -> Some t.(5)) };
              |];
            assemble = (fun ~keys ~aggs -> Array.append keys aggs);
            having = None;
            epoch_out = Some 0;
            punct_in = None;
          }
      in
      let split_out = tuples (run_op (Rts.Aggregate.op super) partials) in
      let to_set rows = List.sort compare (List.map Array.to_list rows) in
      to_set single_out = to_set split_out)

let test_lfta_eviction_counting () =
  (* table of 1 slot: every key change evicts *)
  let lfta =
    Rts.Lfta_aggregate.make
      {
        Rts.Lfta_aggregate.table_bits = 0;
        pred = None;
        keys = [| (fun t -> Some t.(0)) |];
        epoch_key = None;
        direction = Order_prop.Asc;
        band = 0.0;
        aggs = [| { Agg_fn.kind = Agg_fn.Count; arg = None } |];
        assemble = (fun ~keys ~aggs -> Array.append keys aggs);
        punct_in = None;
        epoch_out = None;
      }
  in
  let op = Rts.Lfta_aggregate.op lfta in
  let items = [Item.Tuple [| vint 1 |]; Item.Tuple [| vint 2 |]; Item.Tuple [| vint 1 |]; Item.Eof] in
  let out = run_op op items in
  check Alcotest.int "evictions" 2 (Rts.Lfta_aggregate.evictions lfta);
  check Alcotest.int "three partials out" 3 (List.length (tuples out))

(* Epoch punctuation: every epoch advance (never the first epoch) emits
   one Punct on [epoch_out], after the tuples its flush produced,
   carrying the band-aware bound of the new high-water. *)
let lfta_punct_cfg ~direction ~band =
  {
    Rts.Lfta_aggregate.table_bits = 4;
    pred = None;
    keys = [| (fun t -> Some t.(0)); (fun t -> Some t.(1)) |];
    epoch_key = Some 0;
    direction;
    band;
    aggs = [| { Agg_fn.kind = Agg_fn.Count; arg = None } |];
    assemble = (fun ~keys ~aggs -> Array.append keys aggs);
    punct_in = None;
    epoch_out = Some 0;
  }

let show_item = function
  | Item.Tuple t -> "T" ^ String.concat "," (List.map Value.to_string (Array.to_list t))
  | Item.Punct b ->
      "P" ^ String.concat "," (List.map (fun (f, v) -> Printf.sprintf "%d:%s" f (Value.to_string v)) b)
  | Item.Eof -> "EOF"
  | Item.Flush -> "FLUSH"
  | Item.Error _ | Item.Gap _ -> "CTRL"

(* The run of tuples before each control item, sorted (slot order is
   the table's business), then the control item itself. *)
let segments items =
  let close acc run = if run = [] then acc else List.sort compare run :: acc in
  let rec go acc run = function
    | [] -> List.rev (close acc run)
    | (Item.Tuple _ as it) :: rest -> go acc (show_item it :: run) rest
    | ctrl :: rest -> go ([ show_item ctrl ] :: close acc run) [] rest
  in
  go [] [] items

let test_lfta_epoch_punct () =
  let t e k = Item.Tuple [| e; vint k |] in
  let run ~direction ~band items =
    segments (run_op (Rts.Lfta_aggregate.op (Rts.Lfta_aggregate.make (lfta_punct_cfg ~direction ~band))) items)
  in
  check
    Alcotest.(list (list string))
    "monotone asc: one punct per advance, after its flush"
    [
      [ "T0,1,2"; "T0,2,1" ]; [ "P0:1" ]; [ "T1,1,1" ]; [ "P0:3" ]; [ "T3,2,1" ]; [ "EOF" ];
    ]
    (run ~direction:Order_prop.Asc ~band:0.0
       [ t (vint 0) 1; t (vint 0) 2; t (vint 0) 1; t (vint 1) 1; t (vint 3) 2; Item.Eof ]);
  (* Banded (Asc, 30): the bound trails the high-water by the band; a
     tuple behind the high-water but inside the band moves nothing. *)
  check
    Alcotest.(list (list string))
    "banded asc: bound = high-water - band"
    [ [ "T10,1,1" ]; [ "P0:20" ]; [ "T25,1,1"; "T50,1,1" ]; [ "P0:30.5" ]; [ "T60.5,1,1" ]; [ "EOF" ] ]
    (run ~direction:Order_prop.Asc ~band:30.0
       [ t (vint 10) 1; t (vint 50) 1; t (vint 25) 1; t (Value.Float 60.5) 1; Item.Eof ]);
  check
    Alcotest.(list (list string))
    "desc: the bound sits above the high-water"
    [ [ "T9,1,1" ]; [ "P0:7" ]; [ "T7,1,1" ]; [ "EOF" ] ]
    (run ~direction:Order_prop.Desc ~band:0.0 [ t (vint 9) 1; t (vint 7) 1; Item.Eof ]);
  check
    Alcotest.(list (list string))
    "banded desc: bound = high-water + band"
    [ [ "T50,1,1" ]; [ "P0:70" ]; [ "T40,1,1" ]; [ "EOF" ] ]
    (run ~direction:Order_prop.Desc ~band:30.0 [ t (vint 50) 1; t (vint 40) 1; Item.Eof ]);
  (* nothing before the first epoch, and none without an epoch column *)
  check
    Alcotest.(list (list string))
    "first epoch: no punct"
    [ [ "T4,1,2" ]; [ "EOF" ] ]
    (run ~direction:Order_prop.Asc ~band:0.0 [ t (vint 4) 1; t (vint 4) 1; Item.Eof ]);
  let silent =
    Rts.Lfta_aggregate.make { (lfta_punct_cfg ~direction:Order_prop.Asc ~band:0.0) with epoch_out = None }
  in
  check Alcotest.int "no epoch_out: no punct" 0
    (List.length
       (List.filter
          (function Item.Punct _ -> true | _ -> false)
          (run_op (Rts.Lfta_aggregate.op silent) [ t (vint 0) 1; t (vint 1) 1; t (vint 2) 1 ])))

(* ------------------------------- Merge --------------------------------- *)

let merge_outputs_ordered =
  qtest ~count:100 "merge output respects the ordered attribute" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let mk () =
        let ts = ref 0 in
        List.init (10 + Prng.int rng 30) (fun _ ->
            ts := !ts + Prng.int rng 5;
            [| vint !ts |])
      in
      let s0 = mk () and s1 = mk () in
      let merge =
        Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc }
      in
      let op = Rts.Merge_op.op merge in
      let out = ref [] in
      let emit i = out := i :: !out in
      let q0 = ref s0 and q1 = ref s1 in
      let deliver input row = op.Rts.Operator.on_item ~input (Item.Tuple row) ~emit in
      let rec go () =
        match (!q0, !q1) with
        | [], [] -> ()
        | x :: rest, _ when !q1 = [] || Prng.bool rng ->
            q0 := rest;
            deliver 0 x;
            go ()
        | _, y :: rest ->
            q1 := rest;
            deliver 1 y;
            go ()
        | x :: rest, [] ->
            q0 := rest;
            deliver 0 x;
            go ()
      in
      go ();
      op.Rts.Operator.on_item ~input:0 Item.Eof ~emit;
      op.Rts.Operator.on_item ~input:1 Item.Eof ~emit;
      let ts_list =
        List.filter_map
          (function
            | Item.Tuple t -> ( match t.(0) with Value.Int v -> Some v | _ -> None)
            | _ -> None)
          (List.rev !out)
      in
      ts_list = List.sort compare ts_list
      && List.length ts_list = List.length s0 + List.length s1)

let test_merge_blocked_input_reported () =
  let merge = Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc } in
  let op = Rts.Merge_op.op merge in
  let emit _ = () in
  op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  check Alcotest.(option int) "blocked on silent input 1" (Some 1)
    (op.Rts.Operator.blocked_input ());
  (* a punctuation unblocks without a tuple *)
  op.Rts.Operator.on_item ~input:1 (Item.Punct [(0, vint 10)]) ~emit;
  check Alcotest.(option int) "punct unblocked" None (op.Rts.Operator.blocked_input ())

let test_merge_punct_advances () =
  let merge = Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc } in
  let op = Rts.Merge_op.op merge in
  let out = ref [] in
  let emit i = out := i :: !out in
  op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  check Alcotest.int "held back" 0 (List.length !out);
  op.Rts.Operator.on_item ~input:1 (Item.Punct [(0, vint 7)]) ~emit;
  check Alcotest.bool "tuple released by punct" true
    (List.exists (function Item.Tuple [| Value.Int 5 |] -> true | _ -> false) !out)

let test_merge_eof_drains () =
  let merge = Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Asc } in
  let op = Rts.Merge_op.op merge in
  let out = ref [] in
  let emit i = out := i :: !out in
  op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  op.Rts.Operator.on_item ~input:1 Item.Eof ~emit;
  op.Rts.Operator.on_item ~input:0 Item.Eof ~emit;
  check Alcotest.bool "drained and eof" true
    (match List.rev !out with [Item.Tuple _; Item.Eof] -> true | _ -> false)

(* -------------------------------- Join ---------------------------------- *)

let join_matches_nested_loop =
  qtest ~count:100 "windowed join = nested loop within window" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let mk n =
        let ts = ref 0 in
        List.init n (fun i ->
            ts := !ts + Prng.int rng 4;
            [| vint !ts; vint i |])
      in
      let left = mk (10 + Prng.int rng 20) and right = mk (10 + Prng.int rng 20) in
      let lo = -2.0 and hi = 2.0 in
      let join =
        Rts.Join_op.make
          {
            Rts.Join_op.output_mode = Rts.Join_op.Banded_output;
            left_idx = 0;
            right_idx = 0;
            lo;
            hi;
            pred = (fun _ _ -> true);
            assemble = (fun l r -> Some [| l.(0); l.(1); r.(0); r.(1) |]);
            left_out = Some 0;
            right_out = Some 2;
          }
      in
      let op = Rts.Join_op.op join in
      let out = ref [] in
      let emit i = out := i :: !out in
      (* interleave by timestamp, as an ordered network would deliver *)
      let tagged =
        List.map (fun r -> (0, r)) left @ List.map (fun r -> (1, r)) right
        |> List.stable_sort (fun (_, a) (_, b) -> Value.compare a.(0) b.(0))
      in
      List.iter (fun (input, row) -> op.Rts.Operator.on_item ~input (Item.Tuple row) ~emit) tagged;
      op.Rts.Operator.on_item ~input:0 Item.Eof ~emit;
      op.Rts.Operator.on_item ~input:1 Item.Eof ~emit;
      let got =
        List.filter_map (function Item.Tuple t -> Some (Array.to_list t) | _ -> None) !out
        |> List.sort compare
      in
      let expected =
        List.concat_map
          (fun l ->
            List.filter_map
              (fun r ->
                match (l.(0), r.(0)) with
                | Value.Int lt, Value.Int rt
                  when float_of_int (lt - rt) >= lo && float_of_int (lt - rt) <= hi ->
                    Some [l.(0); l.(1); r.(0); r.(1)]
                | _ -> None)
              right)
          left
        |> List.sort compare
      in
      got = expected)

let test_join_output_modes () =
  (* the Section 2.1 algorithm choice: banded output can run backwards
     within the window; ordered output may not, and buffers more *)
  let mk mode =
    Rts.Join_op.make
      {
        Rts.Join_op.output_mode = mode;
        left_idx = 0;
        right_idx = 0;
        lo = -2.0;
        hi = 2.0;
        pred = (fun _ _ -> true);
        assemble = (fun l r -> Some [| l.(0); r.(0) |]);
        left_out = Some 0;
        right_out = Some 1;
      }
  in
  (* deliver rights first so banded probing emits left ts out of order:
     left 5 arrives and matches rights 4,5,6 immediately; left 4 arrives
     later and matches 3..6 — its outputs (ts 4) follow left 5's. *)
  let feed join =
    let op = Rts.Join_op.op join in
    let out = ref [] in
    let emit i = out := i :: !out in
    List.iter
      (fun rt -> op.Rts.Operator.on_item ~input:1 (Item.Tuple [| vint rt |]) ~emit)
      [3; 4; 5; 6];
    (* left side arrives late and slightly jumbled within its band *)
    op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
    op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
    (* a punctuation instead of the straggler: bound jumps forward *)
    op.Rts.Operator.on_item ~input:0 (Item.Punct [(0, vint 9)]) ~emit;
    op.Rts.Operator.on_item ~input:1 (Item.Punct [(0, vint 9)]) ~emit;
    op.Rts.Operator.on_item ~input:0 Item.Eof ~emit;
    op.Rts.Operator.on_item ~input:1 Item.Eof ~emit;
    List.filter_map
      (function
        | Item.Tuple t -> ( match t.(0) with Value.Int v -> Some v | _ -> None)
        | _ -> None)
      (List.rev !out)
  in
  let banded_join = mk Rts.Join_op.Banded_output in
  let banded = feed banded_join in
  let ordered_join = mk Rts.Join_op.Ordered_output in
  let ordered = feed ordered_join in
  check Alcotest.(list int) "same matches either way" (List.sort compare banded)
    (List.sort compare ordered);
  check Alcotest.(list int) "ordered mode sorted on the left attribute"
    (List.sort compare ordered) ordered

let join_ordered_mode_sorted =
  qtest ~count:60 "ordered join output is always sorted" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let mk n =
        let ts = ref 0 in
        List.init n (fun i ->
            ts := !ts + Prng.int rng 4;
            [| vint !ts; vint i |])
      in
      let left = mk (5 + Prng.int rng 20) and right = mk (5 + Prng.int rng 20) in
      let join =
        Rts.Join_op.make
          {
            Rts.Join_op.output_mode = Rts.Join_op.Ordered_output;
            left_idx = 0;
            right_idx = 0;
            lo = -3.0;
            hi = 3.0;
            pred = (fun _ _ -> true);
            assemble = (fun l r -> Some [| l.(0); l.(1); r.(0); r.(1) |]);
            left_out = Some 0;
            right_out = Some 2;
          }
      in
      let op = Rts.Join_op.op join in
      let out = ref [] in
      let emit i = out := i :: !out in
      let tagged =
        List.map (fun r -> (0, r)) left @ List.map (fun r -> (1, r)) right
        |> List.stable_sort (fun (_, a) (_, b) -> Value.compare a.(0) b.(0))
      in
      List.iter (fun (input, row) -> op.Rts.Operator.on_item ~input (Item.Tuple row) ~emit) tagged;
      op.Rts.Operator.on_item ~input:0 Item.Eof ~emit;
      op.Rts.Operator.on_item ~input:1 Item.Eof ~emit;
      let left_ts =
        List.filter_map
          (function
            | Item.Tuple t -> ( match t.(0) with Value.Int v -> Some v | _ -> None)
            | _ -> None)
          (List.rev !out)
      in
      left_ts = List.sort compare left_ts)

let test_join_purges_state () =
  let join =
    Rts.Join_op.make
      {
        Rts.Join_op.output_mode = Rts.Join_op.Banded_output;
        left_idx = 0;
        right_idx = 0;
        lo = 0.0;
        hi = 0.0;
        pred = (fun _ _ -> true);
        assemble = (fun l r -> Some (Array.append l r));
        left_out = Some 0;
        right_out = None;
      }
  in
  let op = Rts.Join_op.op join in
  let emit _ = () in
  for i = 1 to 100 do
    op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint i |]) ~emit;
    op.Rts.Operator.on_item ~input:1 (Item.Tuple [| vint i |]) ~emit
  done;
  check Alcotest.bool "window bounds buffered state" true (Rts.Join_op.buffered join <= 4)

let test_join_bad_window () =
  Alcotest.check_raises "lo > hi rejected" (Invalid_argument "Join_op.make: empty window (lo > hi)")
    (fun () ->
      ignore
        (Rts.Join_op.make
           {
             Rts.Join_op.output_mode = Rts.Join_op.Banded_output;
             left_idx = 0;
             right_idx = 0;
             lo = 1.0;
             hi = -1.0;
             pred = (fun _ _ -> true);
             assemble = (fun _ _ -> None);
             left_out = None;
             right_out = None;
           }))

let test_agg_descending_stream () =
  (* a countdown stream (Desc direction): epochs close as values fall *)
  let cfg =
    {
      (agg_config ()) with
      Rts.Aggregate.direction = Order_prop.Desc;
      keys =
        [|
          (fun t -> match t.(0) with Value.Int ts -> Some (vint (ts / 10)) | _ -> None);
          (fun t -> Some t.(1));
        |];
      punct_in = None;
    }
  in
  let agg = Rts.Aggregate.make cfg in
  let op = Rts.Aggregate.op agg in
  let out1 = run_op op [Item.Tuple [| vint 35; vint 0; vint 1 |]] in
  check Alcotest.int "no flush on first" 0 (List.length out1);
  let out2 = run_op op [Item.Tuple [| vint 25; vint 0; vint 1 |]] in
  check Alcotest.int "falling epoch closes group" 1 (List.length (tuples out2));
  let out3 = run_op op [Item.Eof] in
  check Alcotest.int "eof flushes the rest" 1 (List.length (tuples out3))

let test_merge_descending () =
  let merge =
    Rts.Merge_op.make { Rts.Merge_op.n_inputs = 2; ordered_idx = 0; direction = Order_prop.Desc }
  in
  let op = Rts.Merge_op.op merge in
  let out = ref [] in
  let emit i = out := i :: !out in
  op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint 9 |]) ~emit;
  op.Rts.Operator.on_item ~input:1 (Item.Tuple [| vint 8 |]) ~emit;
  op.Rts.Operator.on_item ~input:0 (Item.Tuple [| vint 5 |]) ~emit;
  op.Rts.Operator.on_item ~input:1 (Item.Tuple [| vint 3 |]) ~emit;
  op.Rts.Operator.on_item ~input:0 Item.Eof ~emit;
  op.Rts.Operator.on_item ~input:1 Item.Eof ~emit;
  let ts =
    List.filter_map
      (function Item.Tuple t -> (match t.(0) with Value.Int v -> Some v | _ -> None) | _ -> None)
      (List.rev !out)
  in
  check Alcotest.(list int) "descending merge order" [9; 8; 5; 3] ts

(* ------------------------------ MD-join --------------------------------- *)

(* base rows: (label_id, lo_port, hi_port); overlapping on purpose *)
let md_base =
  [|
    [| vint 0; vint 0; vint 1023 |];     (* well-known *)
    [| vint 1; vint 1024; vint 65535 |]; (* ephemeral *)
    [| vint 2; vint 80; vint 80 |];      (* web: overlaps well-known *)
  |]

let md_config ?(epoch_field = 0) () =
  {
    Rts.Md_join_op.base = md_base;
    theta =
      (fun b s ->
        match (b.(1), b.(2), s.(1)) with
        | Value.Int lo, Value.Int hi, Value.Int port -> port >= lo && port <= hi
        | _ -> false);
    aggs =
      [|
        { Agg_fn.kind = Agg_fn.Count; arg = None };
        { Agg_fn.kind = Agg_fn.Sum; arg = Some (fun s -> Some s.(2)) };
      |];
    epoch_field;
    direction = Order_prop.Asc;
    band = 0.0;
    assemble = (fun ~base ~epoch ~aggs -> [| epoch; base.(0); aggs.(0); aggs.(1) |]);
  }

let test_md_join_overlapping_groups () =
  (* tuples: (epoch, port, len) *)
  let md = Rts.Md_join_op.make (md_config ()) in
  let rows =
    [
      [| vint 1; vint 80; vint 10 |];
      [| vint 1; vint 22; vint 20 |];
      [| vint 1; vint 5000; vint 30 |];
      [| vint 2; vint 80; vint 40 |];
    ]
  in
  let out = run_op (Rts.Md_join_op.op md) (List.map (fun r -> Item.Tuple r) rows @ [Item.Eof]) in
  let strings =
    List.map
      (fun t -> String.concat "," (List.map Value.to_string (Array.to_list t)))
      (tuples out)
  in
  (* epoch 1: the port-80 packet counts in BOTH well-known and web; the
     quiet group still reports; epoch 2 flushed at EOF *)
  check Alcotest.(list string) "overlapping + empty groups"
    [
      "1,0,2,30"  (* well-known: 80 + 22 *);
      "1,1,1,30"  (* ephemeral: 5000 *);
      "1,2,1,10"  (* web: just the port-80 one *);
      "2,0,1,40";
      "2,1,0,null";
      "2,2,1,40";
    ]
    strings

let test_md_join_empty_base_rejected () =
  Alcotest.check_raises "empty base" (Invalid_argument "Md_join_op.make: empty base relation")
    (fun () -> ignore (Rts.Md_join_op.make { (md_config ()) with Rts.Md_join_op.base = [||] }))

let test_md_join_flush_and_punct () =
  let md = Rts.Md_join_op.make (md_config ()) in
  let op = Rts.Md_join_op.op md in
  ignore (run_op op [Item.Tuple [| vint 5; vint 80; vint 1 |]]);
  (* a punctuation past the open epoch closes it *)
  let out = run_op op [Item.Punct [(0, vint 9)]] in
  check Alcotest.int "punct closes the epoch (3 base rows)" 3 (List.length (tuples out));
  check Alcotest.int "one epoch emitted" 1 (Rts.Md_join_op.epochs_emitted md)

let test_md_join_in_manager () =
  (* the paper's bypass path: a user-written query node in the network *)
  let mgr = Rts.Manager.create () in
  let schema3 =
    Schema.make
      [
        { Schema.name = "tb"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
        { Schema.name = "port"; ty = Ty.Int; order = Order_prop.Unordered };
        { Schema.name = "len"; ty = Ty.Int; order = Order_prop.Unordered };
      ]
  in
  let rows =
    [[| vint 1; vint 80; vint 5 |]; [| vint 1; vint 9000; vint 7 |]; [| vint 2; vint 443; vint 9 |]]
  in
  let remaining = ref rows in
  ignore
    (Result.get_ok
       (Rts.Manager.add_source mgr ~name:"s" ~schema:schema3
          {
            Rts.Node.pull =
              (fun () ->
                match !remaining with
                | [] -> None
                | r :: rest ->
                    remaining := rest;
                    Some (Item.Tuple r));
            clock = (fun () -> []);
          }));
  let md = Rts.Md_join_op.make (md_config ()) in
  let out_schema =
    Schema.make
      [
        { Schema.name = "tb"; ty = Ty.Int; order = Order_prop.Monotone Order_prop.Asc };
        { Schema.name = "bucket"; ty = Ty.Int; order = Order_prop.Unordered };
        { Schema.name = "cnt"; ty = Ty.Int; order = Order_prop.Unordered };
        { Schema.name = "bytes"; ty = Ty.Int; order = Order_prop.Unordered };
      ]
  in
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name:"port_bands" ~kind:Rts.Node.Hfta
          ~schema:out_schema ~inputs:["s"] ~op:(Rts.Md_join_op.op md)));
  let n = ref 0 in
  Result.get_ok (Rts.Manager.on_item mgr "port_bands" (function Item.Tuple _ -> incr n | _ -> ()));
  (match Rts.Scheduler.run mgr with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.int "two epochs x three buckets" 6 !n

(* --------------------------- Manager/Scheduler -------------------------- *)

let src_schema = mk_schema ()

let counting_source n =
  let i = ref 0 in
  {
    Rts.Node.pull =
      (fun () ->
        if !i >= n then None
        else begin
          let v = !i in
          incr i;
          Some (Item.Tuple [| vint v; vint (v mod 3) |])
        end);
    clock = (fun () -> [(0, vint !i)]);
  }

let test_manager_registry () =
  let mgr = Rts.Manager.create () in
  (match Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 5) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Rts.Manager.add_source mgr ~name:"S" ~schema:src_schema (counting_source 5) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate name (case-insensitive) accepted");
  check Alcotest.bool "find case-insensitive" true (Rts.Manager.find mgr "S" <> None);
  match Rts.Manager.subscribe mgr "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown stream subscribed"

let passthrough_op () = Rts.Select_op.make ~project:(fun t -> Some t) ~punct_map:[(0, 0)] ()

let test_manager_lfta_batch_restriction () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 1)));
  Rts.Manager.start mgr;
  (match
     Rts.Manager.add_query_node mgr ~name:"late_lfta" ~kind:Rts.Node.Lfta ~schema:src_schema
       ~inputs:["s"] ~op:(passthrough_op ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "LFTA after start accepted");
  (* HFTAs can be added at any point *)
  (match
     Rts.Manager.add_query_node mgr ~name:"late_hfta" ~kind:Rts.Node.Hfta ~schema:src_schema
       ~inputs:["s"] ~op:(passthrough_op ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("HFTA after start rejected: " ^ e));
  (* a restart re-opens the LFTA batch *)
  Rts.Manager.restart mgr;
  match
    Rts.Manager.add_query_node mgr ~name:"relinked" ~kind:Rts.Node.Lfta ~schema:src_schema
      ~inputs:["s"] ~op:(passthrough_op ())
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("LFTA after restart rejected: " ^ e)

let test_manager_lfta_input_restriction () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 1)));
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name:"h" ~kind:Rts.Node.Hfta ~schema:src_schema
          ~inputs:["s"] ~op:(passthrough_op ())));
  match
    Rts.Manager.add_query_node mgr ~name:"bad" ~kind:Rts.Node.Lfta ~schema:src_schema
      ~inputs:["h"] ~op:(passthrough_op ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "LFTA reading a stream accepted"

(* -------------------- channel promotion --------------------------------- *)

let drain_channel chan =
  let rec go acc =
    match Rts.Channel.pop chan with Some item -> go (item :: acc) | None -> List.rev acc
  in
  go []

let test_promote_cross_carries_buffer () =
  (* whatever sits buffered at promotion time — tuples, punctuation, Eof —
     must come out of the cross-domain channel intact and in order *)
  let chan = Rts.Channel.create ~capacity:16 ~name:"edge" () in
  let items =
    [
      Item.Tuple [| vint 0; vint 0 |];
      Item.Tuple [| vint 1; vint 0 |];
      Item.Punct [(0, vint 1)];
      Item.Tuple [| vint 2; vint 0 |];
      Item.Eof;
    ]
  in
  List.iter (fun item -> assert (Rts.Channel.push chan item)) items;
  let xc = Rts.Channel.promote_cross chan in
  check Alcotest.bool "channel reports cross" true (Rts.Channel.is_cross chan);
  check Alcotest.int "nothing lost in the move" (List.length items) (Rts.Channel.length chan);
  check Alcotest.int "xchannel holds the buffer" (List.length items) (Rts.Xchannel.length xc);
  let got = drain_channel chan in
  check Alcotest.bool "buffered items carry over in order" true (got = items);
  check Alcotest.int "no drops from promotion" 0 (Rts.Channel.drops chan)

let test_promote_cross_partial_batch () =
  (* promotion mid-stream, after a batch was partially consumed: the
     consumer-side remainder must carry over ahead of the ring *)
  let chan = Rts.Channel.create ~capacity:16 ~name:"edge" () in
  let batch =
    Rts.Batch.make
      [| [| vint 0; vint 0 |]; [| vint 1; vint 0 |]; [| vint 2; vint 0 |] |]
      (Some (Item.Punct [(0, vint 2)]))
  in
  assert (Rts.Channel.push_batch chan batch);
  assert (Rts.Channel.push chan (Item.Tuple [| vint 3; vint 0 |]));
  (match Rts.Channel.pop chan with
  | Some (Item.Tuple [| Value.Int 0; _ |]) -> ()
  | _ -> Alcotest.fail "first tuple expected before promotion");
  ignore (Rts.Channel.promote_cross chan);
  let got = drain_channel chan in
  let expected =
    [
      Item.Tuple [| vint 1; vint 0 |];
      Item.Tuple [| vint 2; vint 0 |];
      Item.Punct [(0, vint 2)];
      Item.Tuple [| vint 3; vint 0 |];
    ]
  in
  check Alcotest.bool "remainder then ring, in order" true (got = expected)

let test_promote_cross_idempotent () =
  (* a second promotion mid-stream must return the same xchannel and
     disturb nothing *)
  let chan = Rts.Channel.create ~capacity:16 ~name:"edge" () in
  assert (Rts.Channel.push chan (Item.Tuple [| vint 0; vint 0 |]));
  let xc1 = Rts.Channel.promote_cross chan in
  assert (Rts.Channel.push chan (Item.Tuple [| vint 1; vint 0 |]));
  (match Rts.Channel.pop chan with
  | Some (Item.Tuple [| Value.Int 0; _ |]) -> ()
  | _ -> Alcotest.fail "first tuple expected between promotions");
  let xc2 = Rts.Channel.promote_cross chan in
  check Alcotest.bool "same xchannel both times" true (xc1 == xc2);
  (match Rts.Channel.cross chan with
  | Some xc -> check Alcotest.bool "cross accessor agrees" true (xc == xc1)
  | None -> Alcotest.fail "promoted channel lost its xchannel");
  let got = drain_channel chan in
  check Alcotest.bool "in-flight item undisturbed" true
    (got = [Item.Tuple [| vint 1; vint 0 |]])

let test_promote_cross_capacity_clamp () =
  (* the cross capacity is never smaller than what is already buffered:
     promotion runs single-domain, so a blocking push would never drain *)
  let chan = Rts.Channel.create ~capacity:8 ~name:"edge" () in
  for i = 0 to 4 do
    assert (Rts.Channel.push chan (Item.Tuple [| vint i; vint 0 |]))
  done;
  let xc = Rts.Channel.promote_cross ~capacity:2 chan in
  check Alcotest.bool "capacity clamped to buffer" true (Rts.Xchannel.capacity xc >= 5);
  check Alcotest.int "every buffered item admitted" 5 (Rts.Xchannel.length xc)

let test_scheduler_end_to_end () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 100)));
  ignore
    (Result.get_ok
       (Rts.Manager.add_query_node mgr ~name:"q" ~kind:Rts.Node.Lfta ~schema:src_schema
          ~inputs:["s"] ~op:(passthrough_op ())));
  let chan = Result.get_ok (Rts.Manager.subscribe mgr "q") in
  (match Rts.Scheduler.run mgr with Ok _ -> () | Error e -> Alcotest.fail e);
  let rec drain acc =
    match Rts.Channel.pop chan with
    | Some (Item.Tuple _) -> drain (acc + 1)
    | Some _ -> drain acc
    | None -> acc
  in
  check Alcotest.int "all tuples arrive at subscriber" 100 (drain 0)

let test_scheduler_max_rounds_guard () =
  (* a source that never ends must hit the round guard with a clean error *)
  let mgr = Rts.Manager.create () in
  ignore
    (Result.get_ok
       (Rts.Manager.add_source mgr ~name:"forever" ~schema:src_schema
          {
            Rts.Node.pull = (fun () -> Some (Item.Tuple [| vint 0; vint 0 |]));
            clock = (fun () -> []);
          }));
  match Rts.Scheduler.run ~max_rounds:10 mgr with
  | Error msg -> check Alcotest.bool "round guard fires" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "unbounded source should exhaust max_rounds"

let test_scheduler_rerun_is_noop () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 5)));
  ignore (Result.get_ok (Rts.Scheduler.run mgr));
  (* everything exhausted: a second run completes immediately *)
  match Rts.Scheduler.run mgr with
  | Ok stats -> check Alcotest.bool "no extra rounds needed" true (stats.Rts.Scheduler.rounds <= 1)
  | Error e -> Alcotest.fail e

let rounds_metric mgr =
  match
    Gigascope_obs.Metrics.find
      (Gigascope_obs.Metrics.snapshot (Rts.Manager.metrics mgr))
      "rts.scheduler.rounds"
  with
  | Some (Gigascope_obs.Metrics.Counter n) -> n
  | _ -> Alcotest.fail "rts.scheduler.rounds counter missing"

let test_scheduler_rounds_match_progress () =
  (* regression: [rounds] (stat and metric) counts only iterations that
     moved data. An empty source's single Eof-emitting iteration moves
     nothing — it used to be reported as a round *)
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 0)));
  let stats = Result.get_ok (Rts.Scheduler.run ~quantum:1 mgr) in
  check Alcotest.int "empty source: zero rounds" 0 stats.Rts.Scheduler.rounds;
  check Alcotest.int "empty source: metric agrees" 0 (rounds_metric mgr);
  (* N tuples at quantum 1: exactly N productive iterations. The trailing
     iteration that only discovers Eof is not observable progress and must
     not be counted (it used to make this N + 1) *)
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 7)));
  let seen = ref 0 in
  Result.get_ok (Rts.Manager.on_item mgr "s" (function Item.Tuple _ -> incr seen | _ -> ()));
  let stats = Result.get_ok (Rts.Scheduler.run ~quantum:1 mgr) in
  check Alcotest.int "all tuples observed" 7 !seen;
  check Alcotest.int "one round per tuple, Eof round excluded" 7 stats.Rts.Scheduler.rounds;
  check Alcotest.int "metric matches the stat" stats.Rts.Scheduler.rounds (rounds_metric mgr)

let test_scheduler_multiple_subscribers () =
  let mgr = Rts.Manager.create () in
  ignore (Result.get_ok (Rts.Manager.add_source mgr ~name:"s" ~schema:src_schema (counting_source 10)));
  let a = ref 0 and b = ref 0 in
  Result.get_ok (Rts.Manager.on_item mgr "s" (function Item.Tuple _ -> incr a | _ -> ()));
  Result.get_ok (Rts.Manager.on_item mgr "s" (function Item.Tuple _ -> incr b | _ -> ()));
  ignore (Result.get_ok (Rts.Scheduler.run mgr));
  check Alcotest.int "first subscriber" 10 !a;
  check Alcotest.int "second subscriber" 10 !b

let () =
  Alcotest.run "rts"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          value_equal_hash_consistent;
          value_equal_implies_hash;
          Alcotest.test_case "int/float hash" `Quick test_value_int_float_hash;
          Alcotest.test_case "truthy" `Quick test_value_truthy;
          Alcotest.test_case "arrays" `Quick test_value_arrays;
        ] );
      ( "order-prop",
        [
          Alcotest.test_case "weaken" `Quick test_order_weaken;
          Alcotest.test_case "usability" `Quick test_order_usability;
          Alcotest.test_case "arithmetic imputation" `Quick test_order_arithmetic_imputation;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicates" `Quick test_schema_duplicates;
          Alcotest.test_case "concat" `Quick test_schema_concat;
          Alcotest.test_case "ordered fields" `Quick test_schema_ordered_fields;
        ] );
      ( "select",
        [
          Alcotest.test_case "filter + project + punct" `Quick test_select_filter_project;
          Alcotest.test_case "partial projection" `Quick test_select_partial_projection;
        ] );
      ( "sample",
        [
          Alcotest.test_case "extremes" `Quick test_sample_extremes;
          Alcotest.test_case "deterministic" `Quick test_sample_deterministic;
        ] );
      ( "aggregate",
        [
          hfta_agg_matches_oracle;
          Alcotest.test_case "epoch flush" `Quick test_agg_epoch_flushes_incrementally;
          Alcotest.test_case "epoch output order" `Quick test_agg_output_epoch_order;
          Alcotest.test_case "punct flush + translate" `Quick test_agg_punct_flush_and_translate;
          Alcotest.test_case "having" `Quick test_agg_having;
          Alcotest.test_case "banded keeps groups open" `Quick test_agg_banded_keeps_groups_open;
          Alcotest.test_case "partial key discards" `Quick test_agg_partial_key_discards;
          Alcotest.test_case "no epoch -> eof only" `Quick test_agg_no_epoch_flushes_at_eof_only;
          Alcotest.test_case "flush item" `Quick test_agg_flush_item;
          Alcotest.test_case "predicate filters" `Quick test_agg_pred_filters;
          Alcotest.test_case "descending stream" `Quick test_agg_descending_stream;
        ] );
      ( "lfta-aggregate",
        [
          two_level_equivalence;
          Alcotest.test_case "eviction counting" `Quick test_lfta_eviction_counting;
          Alcotest.test_case "epoch punctuation" `Quick test_lfta_epoch_punct;
        ] );
      ( "merge",
        [
          merge_outputs_ordered;
          Alcotest.test_case "blocked input reported" `Quick test_merge_blocked_input_reported;
          Alcotest.test_case "punct advances" `Quick test_merge_punct_advances;
          Alcotest.test_case "eof drains" `Quick test_merge_eof_drains;
          Alcotest.test_case "descending merge" `Quick test_merge_descending;
        ] );
      ( "join",
        [
          join_matches_nested_loop;
          Alcotest.test_case "output modes" `Quick test_join_output_modes;
          join_ordered_mode_sorted;
          Alcotest.test_case "purges state" `Quick test_join_purges_state;
          Alcotest.test_case "bad window" `Quick test_join_bad_window;
        ] );
      ( "md-join",
        [
          Alcotest.test_case "overlapping groups" `Quick test_md_join_overlapping_groups;
          Alcotest.test_case "empty base rejected" `Quick test_md_join_empty_base_rejected;
          Alcotest.test_case "flush + punct" `Quick test_md_join_flush_and_punct;
          Alcotest.test_case "as a query node" `Quick test_md_join_in_manager;
        ] );
      ( "channel",
        [
          Alcotest.test_case "promotion carries buffer" `Quick test_promote_cross_carries_buffer;
          Alcotest.test_case "promotion carries partial batch" `Quick
            test_promote_cross_partial_batch;
          Alcotest.test_case "promotion idempotent" `Quick test_promote_cross_idempotent;
          Alcotest.test_case "promotion capacity clamp" `Quick test_promote_cross_capacity_clamp;
        ] );
      ( "manager-scheduler",
        [
          Alcotest.test_case "registry" `Quick test_manager_registry;
          Alcotest.test_case "LFTA batch restriction" `Quick test_manager_lfta_batch_restriction;
          Alcotest.test_case "LFTA input restriction" `Quick test_manager_lfta_input_restriction;
          Alcotest.test_case "end to end" `Quick test_scheduler_end_to_end;
          Alcotest.test_case "max rounds guard" `Quick test_scheduler_max_rounds_guard;
          Alcotest.test_case "rerun is noop" `Quick test_scheduler_rerun_is_noop;
          Alcotest.test_case "multiple subscribers" `Quick test_scheduler_multiple_subscribers;
          Alcotest.test_case "rounds match progress" `Quick test_scheduler_rounds_match_progress;
        ] );
    ]
