type config = {
  base : Value.t array array;
  theta : Value.t array -> Value.t array -> bool;
  aggs : Agg_fn.spec array;
  epoch_field : int;
  direction : Order_prop.direction;
  band : float;
  assemble : base:Value.t array -> epoch:Value.t -> aggs:Value.t array -> Value.t array;
}

type t = {
  cfg : config;
  accs : Agg_fn.acc array array;  (** per base row, per aggregate *)
  mutable epoch : Value.t;  (** open epoch value; Null before any tuple *)
  mutable epochs_emitted : int;
  mutable done_ : bool;
}

let fresh_accs cfg =
  Array.map (fun _ -> Array.map (fun (s : Agg_fn.spec) -> Agg_fn.init s.Agg_fn.kind) cfg.aggs) cfg.base

let make cfg =
  if Array.length cfg.base = 0 then invalid_arg "Md_join_op.make: empty base relation";
  { cfg; accs = fresh_accs cfg; epoch = Value.Null; epochs_emitted = 0; done_ = false }

(* The epoch a value belongs to, honouring the band: values within [band]
   of the frontier stay in the open epoch. *)
let band_allows cfg ~frontier v =
  if cfg.band = 0.0 then not (Order_prop.ahead cfg.direction v frontier)
  else
    match (Value.to_float v, Value.to_float frontier) with
    | Some fv, Some ff -> (
        match cfg.direction with
        | Order_prop.Asc -> fv <= ff +. cfg.band
        | Order_prop.Desc -> fv >= ff -. cfg.band)
    | _ -> not (Order_prop.ahead cfg.direction v frontier)

let emit_epoch t ~emit =
  t.epochs_emitted <- t.epochs_emitted + 1;
  Array.iteri
    (fun i base_row ->
      let agg_values = Array.map Agg_fn.final t.accs.(i) in
      ignore (emit (Item.Tuple (t.cfg.assemble ~base:base_row ~epoch:t.epoch ~aggs:agg_values)));
      Array.iteri
        (fun j (s : Agg_fn.spec) -> t.accs.(i).(j) <- Agg_fn.init s.Agg_fn.kind)
        t.cfg.aggs)
    t.cfg.base

let on_tuple t values ~emit =
  let cfg = t.cfg in
  if cfg.epoch_field >= 0 && cfg.epoch_field < Array.length values then begin
    let v = values.(cfg.epoch_field) in
    if t.epoch = Value.Null then t.epoch <- v
    else if not (band_allows cfg ~frontier:t.epoch v) then begin
      emit_epoch t ~emit;
      t.epoch <- v
    end
    else if Order_prop.ahead cfg.direction v t.epoch then t.epoch <- v
  end;
  Array.iteri
    (fun i base_row ->
      if cfg.theta base_row values then
        Array.iteri
          (fun j (spec : Agg_fn.spec) ->
            let arg = match spec.Agg_fn.arg with None -> None | Some f -> f values in
            Agg_fn.step t.accs.(i).(j) arg)
          cfg.aggs)
    cfg.base

let op t =
  let on_item ~input:_ item ~emit =
    match item with
    | Item.Tuple values -> on_tuple t values ~emit
    | Item.Punct bounds -> (
        (* a bound past the open epoch closes it *)
        match List.assoc_opt t.cfg.epoch_field bounds with
        | Some v when t.epoch <> Value.Null && not (band_allows t.cfg ~frontier:t.epoch v) ->
            emit_epoch t ~emit;
            t.epoch <- v
        | _ -> ())
    | Item.Flush ->
        if t.epoch <> Value.Null then emit_epoch t ~emit;
        emit Item.Flush
    | Item.Eof ->
        if not t.done_ then begin
          t.done_ <- true;
          if t.epoch <> Value.Null then emit_epoch t ~emit;
          emit Item.Eof
        end
    | (Item.Error _ | Item.Gap _) as ctrl -> emit ctrl
  in
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
    buffered = (fun () -> Array.length t.cfg.base);
  reset = None;
  }

let epochs_emitted t = t.epochs_emitted
