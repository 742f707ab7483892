type config = {
  table_bits : int;
  pred : (Value.t array -> bool) option;
  keys : (Value.t array -> Value.t option) array;
  epoch_key : int option;
  direction : Order_prop.direction;
  band : float;
  aggs : Agg_fn.spec array;
  assemble : keys:Value.t array -> aggs:Value.t array -> Value.t array;
  (* Punctuation, as in {!Aggregate}: [epoch_out] is the output
     position the epoch key lands in, [punct_in] maps an input-field
     bound onto the epoch-key domain. With [epoch_out] set, every epoch
     advance punctuates the output after its flush; with [punct_in]
     too, an input punctuation flushes the table and re-emits the
     translated bound. *)
  punct_in : (int * (Value.t -> Value.t option)) option;
  epoch_out : int option;
}

type slot = { key : Value.t array; accs : Agg_fn.acc array }

module Metrics = Gigascope_obs.Metrics

type t = {
  cfg : config;
  slots : slot option array;
  probe : Value.t array;
      (* the current tuple's key; a slot takes a copy only when created *)
  mutable occupied : int;
  mutable high_water : Value.t;
  evictions : Metrics.Counter.t;
  emitted : Metrics.Counter.t;
  mutable done_ : bool;
}

let make cfg =
  if cfg.table_bits < 0 || cfg.table_bits > 24 then
    invalid_arg "Lfta_aggregate.make: table_bits out of range";
  {
    cfg;
    slots = Array.make (1 lsl cfg.table_bits) None;
    probe = Array.make (Array.length cfg.keys) Value.Null;
    occupied = 0;
    high_water = Value.Null;
    evictions = Metrics.Counter.make ();
    emitted = Metrics.Counter.make ();
    done_ = false;
  }

let emit_slot t s ~emit =
  let agg_values = Array.map Agg_fn.final s.accs in
  let out = t.cfg.assemble ~keys:s.key ~aggs:agg_values in
  Metrics.Counter.incr t.emitted;
  ignore (emit (Item.Tuple out))

let flush_all t ~emit =
  (* Slot order is deterministic and cheap; the downstream HFTA re-groups,
     so no ordering promise is needed beyond bandedness. *)
  Array.iteri
    (fun i slot ->
      match slot with
      | Some s ->
          t.slots.(i) <- None;
          t.occupied <- t.occupied - 1;
          emit_slot t s ~emit
      | None -> ())
    t.slots

let fresh_slot t key =
  { key = Array.copy key; accs = Array.map (fun sp -> Agg_fn.init sp.Agg_fn.kind) t.cfg.aggs }

(* Fill [t.probe] with [values]' key; false when a key expression has no
   value. *)
let fill_probe t values =
  let keys = t.cfg.keys in
  let ok = ref true in
  for i = 0 to Array.length keys - 1 do
    match keys.(i) values with Some v -> t.probe.(i) <- v | None -> ok := false
  done;
  !ok

let on_tuple t values ~emit =
  let cfg = t.cfg in
  if (match cfg.pred with Some p -> p values | None -> true) then begin
  let key = t.probe in
  if fill_probe t values then begin
    (match cfg.epoch_key with
    | Some ek ->
        let v = key.(ek) in
        if t.high_water = Value.Null || Order_prop.ahead cfg.direction v t.high_water then begin
          (* A fresh epoch: everything in the table belongs to closed
             epochs (modulo the band, which the HFTA absorbs). The
             punctuation after the flush tells the HFTA no partial
             behind the band-aware bound will follow, so it closes the
             old epoch now rather than at the first partial of the new
             one, which may sit in the table for a whole epoch. *)
          if t.high_water <> Value.Null then begin
            flush_all t ~emit;
            match cfg.epoch_out with
            | Some out ->
                emit
                  (Item.Punct
                     [ (out, Order_prop.behind_threshold cfg.direction ~band:cfg.band v) ])
            | None -> ()
          end;
          t.high_water <- v
        end
    | None -> ());
    let idx = Value.hash_array key land ((1 lsl cfg.table_bits) - 1) in
    let slot =
      match t.slots.(idx) with
      | Some s when Value.equal_array s.key key -> s
      | Some victim ->
          Metrics.Counter.incr t.evictions;
          emit_slot t victim ~emit;
          let s = fresh_slot t key in
          t.slots.(idx) <- Some s;
          s
      | None ->
          let s = fresh_slot t key in
          t.slots.(idx) <- Some s;
          t.occupied <- t.occupied + 1;
          s
    in
    let aggs = cfg.aggs in
    for i = 0 to Array.length aggs - 1 do
      let arg = match aggs.(i).Agg_fn.arg with None -> None | Some f -> f values in
      Agg_fn.step slot.accs.(i) arg
    done
  end
  end

let op t =
  let on_item ~input:_ item ~emit =
    match item with
    | Item.Tuple values -> on_tuple t values ~emit
    | Item.Punct bounds -> (
        (* Flush so the bound is honoured; with a translator, the
           source's firm bound maps to an epoch bound on the output. *)
        flush_all t ~emit;
        match (t.cfg.punct_in, t.cfg.epoch_out) with
        | Some (in_field, translate), Some out_field -> (
            match List.assoc_opt in_field bounds with
            | Some v -> (
                match translate v with
                | Some epoch_bound -> emit (Item.Punct [ (out_field, epoch_bound) ])
                | None -> ())
            | None -> ())
        | _ -> ())
    | Item.Flush ->
        flush_all t ~emit;
        emit Item.Flush
    | Item.Eof ->
        if not t.done_ then begin
          t.done_ <- true;
          flush_all t ~emit;
          emit Item.Eof
        end
    | (Item.Error _ | Item.Gap _) as ctrl -> emit ctrl
  in
  (* The paper's cheap path: one dispatch folds a whole run of tuples
     into the direct-mapped table. *)
  let on_batch ~input batch ~emit =
    let tuples = Batch.tuples batch in
    for i = 0 to Array.length tuples - 1 do
      on_tuple t tuples.(i) ~emit
    done;
    match Batch.ctrl batch with Some ctrl -> on_item ~input ctrl ~emit | None -> ()
  in
  {
    Operator.on_item;
    on_batch = Some on_batch;
    blocked_input = (fun () -> None);
    buffered = (fun () -> t.occupied);
  reset = None;
  }

let evictions t = Metrics.Counter.get t.evictions
let emitted t = Metrics.Counter.get t.emitted

let register_metrics t reg ~prefix =
  Metrics.attach_counter reg (prefix ^ ".evictions") t.evictions;
  Metrics.attach_counter reg (prefix ^ ".emitted") t.emitted;
  Metrics.attach_gauge_fn reg (prefix ^ ".occupied") (fun () -> float_of_int t.occupied);
  Metrics.attach_gauge_fn reg (prefix ^ ".slots") (fun () ->
      float_of_int (Array.length t.slots));
  (* collision rate: fraction of input tuples that hit an occupied slot
     holding another group's key -- the paper's "table too small" signal *)
  Metrics.attach_gauge_fn reg (prefix ^ ".eviction_rate") (fun () ->
      let ev = Metrics.Counter.get t.evictions in
      let em = Metrics.Counter.get t.emitted in
      if em = 0 then 0.0 else float_of_int ev /. float_of_int em)
