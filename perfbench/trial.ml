(* One trial: build an engine for a workload, replay the traffic through
   it once (closed loop or paced), and collect what it delivered.

   A trial's set-up time is what a user waits for before packets can
   flow: create the engine, install the program, attach the in-process
   callbacks, and for wire workloads listen and wait until every
   subscriber process is attached. *)

module E = Gigascope.Engine
module Net = Gigascope_net
module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock
module Value = Gigascope_rts.Value
module Packet = Gigascope_packet.Packet

type workload = {
  name : string;
  program : string;
  queries : string list;
  capability : E.nic_capability;
  wire : string list;  (** queries delivered to TCP subscribers; the rest go to callbacks *)
  latency_queries : string list;
      (** the queries whose rows make up the latency metrics *)
  epoch_rows : bool;
      (** rows are epoch aggregates keyed by column 0 (latency runs from
          the epoch's last packet); otherwise column 1 is the row's own
          packet timestamp *)
  oracle : Packet.t array -> upto:int -> Oracle.answer;
}

type t = {
  setup_s : float;
  wall_s : float;
  offered : int;
  ring_drops : int;
  chan_drops : int;
  shed : int;
  egress_drops : int;
  alloc_words : float;
  feed : Feed.t;
  snap : Metrics.snapshot;
  rows : (string * (float * string) list) list;
      (** query -> (receipt ns, row text); receipts are stamped on paced trials only *)
  subs : Sub.result list;
  callback_ns : (string * float) list;
      (** per query, time inside the benchmark's callbacks (traced trials) *)
  nic : Gigascope_nic.Nic.t option;
  nodes : (string * Gigascope_rts.Node.kind) list;
  egress_high_water : int;  (** polled egress queue depth (traced trials) *)
}

let lost t = t.ring_drops + t.chan_drops + t.shed + t.egress_drops
let loss_pct t = 100.0 *. float_of_int (lost t) /. float_of_int (max 1 t.offered)

let counter snap name =
  match Metrics.find snap name with Some (Metrics.Counter n) -> n | _ -> 0

let sum_counters snap ~prefix ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Counter n when String.starts_with ~prefix name && String.ends_with ~suffix name ->
          acc + n
      | _ -> acc)
    0 snap

(* Words allocated on the minor heap, where every per-packet allocation
   lands; exact, unlike the major-heap counters, which move with the
   timing of collections. *)
let allocated_words () = Gc.minor_words ()

let or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* What one query's callback receives. Stored so that the callback
   allocates nothing on the minor heap, where [alloc_words] counts: rows
   go into an array that doubles when full and receipt stamps, taken only
   on paced trials, into a float array beside it; arrays this large are
   allocated directly in the major heap. *)
type received = { mutable got : Value.t array array; mutable stamps : float array; mutable count : int }

let receive ~stamp r v =
  if r.count = Array.length r.got then begin
    let got = Array.make (2 * r.count) [||] and stamps = Array.make (2 * r.count) 0.0 in
    Array.blit r.got 0 got 0 r.count;
    Array.blit r.stamps 0 stamps 0 r.count;
    r.got <- got;
    r.stamps <- stamps
  end;
  r.got.(r.count) <- v;
  if stamp then r.stamps.(r.count) <- Clock.now_ns ();
  r.count <- r.count + 1

(* [generate]: instead of replaying [traffic], pull packets from this
   generator as they are made, and keep no rows — the trial that measures
   the heap with neither input nor output held in it. [trace]: time every
   engine step, the feed and the callbacks. [poll_egress]: sample the
   egress queue depth every 1,024 pulls. *)
let run ?(trace = false) ?(poll_egress = false) ?generate (w : workload) (traffic : Inputs.traffic)
    ~upto ~rate =
  let feed = Feed.make ~timed:trace ~traffic ~upto ~rate () in
  let t_setup = Clock.now_ns () in
  let eng = E.create () in
  let bound = ref false in
  (match generate with
  | Some next -> E.add_interface eng ~name:"eth0" ~capability:w.capability ~feed:(fun () -> next) ()
  | None ->
      E.add_interface eng ~name:"eth0" ~capability:w.capability
        ~feed:(fun () ->
          if !bound then failwith "the benchmark's feed was bound twice";
          bound := true;
          Feed.next feed)
        ());
  ignore (or_fail "install" (E.install_program eng w.program));
  let local =
    List.filter_map
      (fun q ->
        if List.mem q w.wire then None
        else begin
          let r = { got = Array.make 1024 [||]; stamps = Array.make 1024 0.0; count = 0 }
          and spent = ref 0.0 in
          let record =
            if generate <> None then ignore else receive ~stamp:(rate > 0.0) r
          in
          let f =
            if trace then (fun v ->
              let s = Clock.now_ns () in
              record v;
              spent := !spent +. (Clock.now_ns () -. s))
            else record
          in
          or_fail "callback" (E.on_tuple eng q f);
          Some (q, r, spent)
        end)
      w.queries
  in
  let server, children =
    if w.wire = [] then (None, [])
    else begin
      let server = Net.Server.create eng in
      let addr = or_fail "listen" (Net.Server.listen server (Net.Addr.Tcp ("127.0.0.1", 0))) in
      let children = List.map (Sub.spawn addr) w.wire in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Net.Server.subscriber_count server < List.length children do
        if Unix.gettimeofday () > deadline then begin
          List.iter Sub.kill children;
          Net.Server.stop server;
          failwith "subscribers did not attach within 10 s"
        end;
        Thread.delay 0.0002
      done;
      (Some server, children)
    end
  in
  let setup_s = (Clock.now_ns () -. t_setup) /. 1e9 in
  let high_water = ref 0 in
  (match server with
  | Some _ when poll_egress ->
      let pulls = ref 0 in
      feed.Feed.on_pull <-
        (fun () ->
          incr pulls;
          if !pulls land 1023 = 0 then
            match Metrics.find (E.metrics_snapshot eng) "net.subscriber.queue_depth" with
            | Some (Metrics.Gauge d) -> high_water := max !high_water (int_of_float d)
            | _ -> ())
  | _ -> ());
  let w0 = allocated_words () in
  let t0 = Clock.now_ns () in
  let result = E.run eng ~trace () in
  let wall_s = (Clock.now_ns () -. t0) /. 1e9 in
  let alloc_words = allocated_words () -. w0 in
  let subs =
    match server with
    | None -> []
    | Some server ->
        if not (Net.Server.drain ~timeout:30.0 server) then prerr_endline "egress drain timed out";
        Net.Server.stop server;
        List.map (fun c -> or_fail "subscriber" (Sub.collect c)) children
  in
  ignore (or_fail "run" result);
  let snap = E.metrics_snapshot eng in
  let rows =
    List.map
      (fun (q, r, _) -> (q, List.init r.count (fun i -> (r.stamps.(i), Inputs.row_to_string r.got.(i)))))
      local
    @ List.map (fun (s : Sub.result) -> (s.Sub.r_query, s.Sub.received)) subs
  in
  {
    setup_s;
    wall_s;
    offered = upto;
    ring_drops = Feed.ring_drops feed;
    chan_drops = sum_counters snap ~prefix:"rts.chan." ~suffix:".drops";
    shed = sum_counters snap ~prefix:"rts.shed." ~suffix:"";
    egress_drops = counter snap "net.subscriber.drops";
    alloc_words;
    feed;
    snap;
    rows;
    subs;
    callback_ns = List.map (fun (q, _, spent) -> (q, !spent)) local;
    nic = E.nic_of eng "eth0";
    nodes =
      List.map
        (fun n -> (Gigascope_rts.Node.name n, Gigascope_rts.Node.kind n))
        (Gigascope_rts.Manager.nodes (E.manager eng));
    egress_high_water = !high_water;
  }

(* Rows in the engine's output that the oracle does not expect, and
   expected rows the engine did not deliver. *)
let wrong_rows t expected =
  Oracle.wrong_rows expected (List.map (fun (q, rs) -> (q, List.map snd rs)) t.rows)

(* Result latency of every delivered row, in ms: receipt minus the due
   time of the last packet the row depends on — its own packet for a
   pass-through row, the last packet of its epoch for an epoch aggregate
   (so the window hold is not counted). The last epoch of a trial is
   closed at once by the end of its input; in a stream that does not end,
   every epoch is closed by the next one's traffic, so only epochs closed
   that way count. *)
let latencies_ms (w : workload) (traffic : Inputs.traffic) t =
  let feed = t.feed in
  let epoch_last = Hashtbl.create 64 in
  if w.epoch_rows then begin
    for i = 0 to feed.Feed.upto - 1 do
      let ts = traffic.Inputs.packets.(i).Packet.ts in
      Hashtbl.replace epoch_last (int_of_float ts) ts
    done;
    Hashtbl.remove epoch_last (int_of_float traffic.Inputs.packets.(feed.Feed.upto - 1).Packet.ts)
  end;
  List.map
    (fun (q, rs) ->
      ( q,
        Array.of_list @@ List.filter_map
          (fun (recv, text) ->
            let row = Inputs.row_of_string text in
            let ts =
              if w.epoch_rows then
                match row.(0) with Value.Int tb -> Hashtbl.find_opt epoch_last tb | _ -> None
              else match row.(1) with Value.Float ts -> Some ts | _ -> None
            in
            Option.map (fun ts -> (recv -. Feed.due_of_ts feed ts) /. 1e6) ts)
          rs ))
    t.rows
