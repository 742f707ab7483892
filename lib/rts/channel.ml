module Ring = Gigascope_util.Ring
module Metrics = Gigascope_obs.Metrics

(* A channel starts Local (plain bounded ring, single-domain cooperative
   scheduling). Scheduler.run promotes edges that cross a domain boundary
   to Cross before any domain spawns; Node.step_inputs and the operators
   never notice the difference.

   The transport unit is a Batch: one ring slot (or one lock acquire on
   a promoted channel) moves a whole run of tuples. A Local ring keeps a
   running item count, so [length] (read by source-side shedding on
   every pulled tuple) costs nothing however full the ring is. *)
type impl = Local of { ring : Batch.t Ring.t; mutable n_items : int } | Cross of Xchannel.t

type t = {
  name : string;
  capacity : int;
  mutable impl : impl;
  tuples_in : Metrics.Counter.t;
  dropped : Metrics.Counter.t;
  occupancy : Metrics.Histogram.t;  (* items per pushed batch *)
}

let create ?(capacity = 4096) ~name () =
  {
    name;
    capacity;
    impl = Local { ring = Ring.create ~capacity; n_items = 0 };
    tuples_in = Metrics.Counter.make ();
    dropped = Metrics.Counter.make ();
    occupancy = Metrics.Histogram.make ();
  }

let name t = t.name
let capacity t = t.capacity

let push_batch t batch =
  let nt = Batch.n_tuples batch in
  match t.impl with
  | Local l ->
      if Ring.push l.ring batch then begin
        l.n_items <- l.n_items + Batch.items batch;
        if nt > 0 then Metrics.Counter.add t.tuples_in nt;
        Metrics.Histogram.observe t.occupancy (float_of_int (Batch.items batch));
        true
      end
      else begin
        (* Full ring: the whole batch is rejected and every tuple it
           carried counts as a drop (not one drop per batch — the
           paper's headline metric must not silently improve under
           batching). A non-Eof control item counts too, as before. An
           Eof must still get through or shutdown wedges: force a
           control-only Eof batch in, evicting a buffered batch exactly
           as the item-at-a-time path evicted a buffered item. *)
        match Batch.ctrl batch with
        | Some ((Item.Eof | Item.Error _) as ctrl) ->
            if nt > 0 then Metrics.Counter.add t.dropped nt;
            (match Ring.pop l.ring with
            | Some evicted -> l.n_items <- l.n_items - Batch.items evicted
            | None -> ());
            ignore (Ring.push l.ring (Batch.of_item ctrl));
            l.n_items <- l.n_items + 1;
            Metrics.Histogram.observe t.occupancy 1.0;
            true
        | Some (Item.Punct _ | Item.Flush | Item.Gap _) ->
            Metrics.Counter.add t.dropped (nt + 1);
            false
        | Some (Item.Tuple _) | None ->
            if nt > 0 then Metrics.Counter.add t.dropped nt;
            false
      end
  | Cross xc ->
      (* Blocking push: cross-domain edges apply backpressure instead of
         dropping; a refusal means the channel was closed by an error
         shutdown. The channel's own cells keep counting so [rts.chan.*]
         and drop totals stay live after promotion. *)
      let ok = Xchannel.push_batch xc batch in
      if ok then begin
        if nt > 0 then Metrics.Counter.add t.tuples_in nt;
        Metrics.Histogram.observe t.occupancy (float_of_int (Batch.items batch))
      end
      else begin
        let lost =
          nt
          + (match Batch.ctrl batch with
            | Some (Item.Punct _ | Item.Flush | Item.Gap _) -> 1
            | Some (Item.Eof | Item.Error _) | Some (Item.Tuple _) | None -> 0)
        in
        if lost > 0 then Metrics.Counter.add t.dropped lost
      end;
      ok

let pop_batch t =
  match t.impl with
  | Local l -> (
      match Ring.pop l.ring with
      | Some b as r ->
          l.n_items <- l.n_items - Batch.items b;
          r
      | None -> None)
  | Cross xc -> Xchannel.pop_batch xc

let length t = match t.impl with Local l -> l.n_items | Cross xc -> Xchannel.length xc

let is_empty t =
  match t.impl with Local l -> Ring.is_empty l.ring | Cross xc -> Xchannel.is_empty xc

let tuples_in t = Metrics.Counter.get t.tuples_in
let drops t = Metrics.Counter.get t.dropped

let high_water t =
  match t.impl with Local l -> Ring.high_water l.ring | Cross xc -> Xchannel.high_water xc

let is_cross t = match t.impl with Cross _ -> true | Local _ -> false

let promote_cross ?capacity t =
  match t.impl with
  | Cross xc -> xc
  | Local l ->
      (* Never smaller than what is already buffered: promotion runs on a
         single domain, so a blocking push here would never be drained. *)
      let capacity =
        max (match capacity with Some c -> max 1 c | None -> t.capacity) l.n_items
      in
      let xc = Xchannel.create ~capacity ~name:t.name () in
      (* Carry over anything buffered before the switch (promotion happens
         before the run, so this is normally empty), oldest first. *)
      let rec drain () =
        match Ring.pop l.ring with
        | Some batch ->
            ignore (Xchannel.push_batch xc batch);
            drain ()
        | None -> ()
      in
      drain ();
      t.impl <- Cross xc;
      xc

let cross t = match t.impl with Cross xc -> Some xc | Local _ -> None

let register_metrics t reg ~prefix =
  Metrics.attach_counter reg (prefix ^ ".tuples_in") t.tuples_in;
  Metrics.attach_counter reg (prefix ^ ".drops") t.dropped;
  Metrics.attach_gauge_fn reg (prefix ^ ".depth") (fun () -> float_of_int (length t));
  Metrics.attach_gauge_fn reg (prefix ^ ".high_water") (fun () -> float_of_int (high_water t));
  Metrics.attach_histogram reg (prefix ^ ".batch_items") t.occupancy
