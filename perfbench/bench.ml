(* The packet-path benchmark. See README.md in this directory.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   prints its report, then one JSON line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

module E = Gigascope.Engine
module Node = Gigascope_rts.Node
module Manager = Gigascope_rts.Manager
module Metrics = Gigascope_obs.Metrics
module Nic = Gigascope_nic.Nic

let workloads =
  [
    {
      Trial.name = "e2_flatout";
      program = Inputs.e2_program;
      queries = Inputs.e2_queries;
      capability = E.Cap_none;
      wire = [];
      latency_queries = Inputs.e2_latency_queries;
      epoch_rows = true;
      oracle = Oracle.e2;
    };
    {
      Trial.name = "e2_paced";
      program = Inputs.e2_program;
      queries = Inputs.e2_queries;
      capability = E.Cap_none;
      wire = ["e2_flows"; "e2_subnets"];
      latency_queries = Inputs.e2_latency_queries;
      epoch_rows = true;
      oracle = Oracle.e2;
    };
    {
      Trial.name = "tap80_bpf";
      program = Inputs.tap80_program;
      queries = ["tap80"];
      capability = E.Cap_bpf;
      wire = [];
      latency_queries = ["tap80"];
      epoch_rows = false;
      oracle = Oracle.tap80;
    };
  ]

(* The fixed offered rate of the reference trials, in packets per second:
   far below capacity on a slow 2-core host, so that at it the engine
   loses nothing and latency is processing delay, not backlog. Low enough
   that a few-millisecond stall of the host is small beside the latency
   the arrival pattern itself sets (at a fifth of it on port 80, a 64-item
   source quantum of tap80 spans about 16 ms of arrivals). *)
let reference_rate = 20_000.0

let loss_threshold_pct = 2.0

(* Capacity search: [searches] bisections in log space between these
   multiples of the closed-loop throughput, each of [probes] paced
   replays of the first capture second, about one epoch (long enough
   that the capture ring cannot hide an overload); a search's capacity is the highest rate one of its
   probes sustained, and the reported capacity is their mean. *)
let search_lo = 0.25
let search_hi = 2.0
let searches = 2
let probes = 6

(* Share of the run's seconds spent before the reference trials: the
   heap trial, generating the traffic, and the closed-loop trials. *)
let closed_share = 0.35

(* The heap trial generates this many capture seconds of traffic: one
   epoch closed by the next one's arrival, and half an epoch more. *)
let heap_capture_seconds = 1.5

(* The waterfall's measured rows may overshoot wall time by at most this
   share. The check is one-sided: the residual row (scheduler loop and
   channel hand-offs) is what no measured row accounts for, so it is
   printed with its share of wall time but not bounded from above. *)
let waterfall_tolerance = 0.05

let show_percentile xs q =
  match Stats.percentile xs q with
  | Some v -> Printf.sprintf "p%.0f %.3f ms (n=%d)" (100.0 *. q) v (Array.length xs)
  | None -> Printf.sprintf "p%.0f - (n=%d)" (100.0 *. q) (Array.length xs)

type metric = { m_name : string; unit_ : string; value : float }

let fail_run msg =
  prerr_endline ("bench: " ^ msg);
  exit 1

let metric name unit_ value =
  Printf.printf "  %-40s %16.4f %s\n" name value unit_;
  { m_name = name; unit_; value }

(* A latency percentile of the run: the median over the reference trials
   of each trial's own percentile, so that a host stall in one trial does
   not set it. [per_trial] holds each trial's samples. *)
let percentile_metric name per_trial q =
  let values =
    List.map
      (fun xs ->
        match Stats.percentile xs q with
        | Some v -> v
        | None ->
            fail_run (Printf.sprintf "%s: %d samples, too few for p%.0f" name (Array.length xs) (100.0 *. q)))
      per_trial
  in
  let v = Stats.median values in
  Printf.printf "  %-40s %16.4f ms  (median of %d trials, n=%s)\n" name v (List.length per_trial)
    (String.concat "," (List.map (fun xs -> string_of_int (Array.length xs)) per_trial));
  { m_name = name; unit_ = "ms"; value = v }

(* ---- trials ---------------------------------------------------------- *)

(* What a run keeps of a trial once its rows have been checked. *)
type summary = {
  s_wall : float;
  s_offered : int;
  s_lost : int;
  s_ring_drops : int;
  s_loss_pct : float;
  s_backlog_grows : bool;
  s_breakdown : string;
  s_words : float;
  s_lateness_ms : float array;
  s_latency_ms : (string * float array) list;  (** per query *)
}

type run = {
  w : Trial.workload;
  traffic : Inputs.traffic;
  n : int;
  oracles : (int, Oracle.answer) Hashtbl.t;
  mutable wrong : int;
  mutable compared : int;
  mutable setups : float list;
}

let make_run w traffic =
  {
    w;
    traffic;
    n = Array.length traffic.Inputs.packets;
    oracles = Hashtbl.create 2;
    wrong = 0;
    compared = 0;
    setups = [];
  }

let expected r upto =
  match Hashtbl.find_opt r.oracles upto with
  | Some e -> e
  | None ->
      let e = r.w.Trial.oracle r.traffic.Inputs.packets ~upto in
      Hashtbl.replace r.oracles upto e;
      e

(* Every trial that lost nothing is checked against the oracle. *)
let check r (t : Trial.t) =
  r.setups <- t.Trial.setup_s :: r.setups;
  if Trial.lost t = 0 then begin
    r.wrong <- r.wrong + Trial.wrong_rows t (expected r t.Trial.offered);
    r.compared <- r.compared + 1
  end

let summarize r ~paced (t : Trial.t) =
  {
    s_wall = t.Trial.wall_s;
    s_offered = t.Trial.offered;
    s_lost = Trial.lost t;
    s_ring_drops = t.Trial.ring_drops;
    s_loss_pct = Trial.loss_pct t;
    s_backlog_grows = paced && Feed.backlog_grows t.Trial.feed;
    s_breakdown =
      Printf.sprintf "ring %d chan %d shed %d egress %d" t.Trial.ring_drops t.Trial.chan_drops
        t.Trial.shed t.Trial.egress_drops;
    s_words = t.Trial.alloc_words /. float_of_int t.Trial.offered;
    s_lateness_ms = (if paced then Array.map (fun x -> x /. 1e6) (Feed.lateness_ns t.Trial.feed) else [||]);
    s_latency_ms = (if paced then Trial.latencies_ms r.w r.traffic t else []);
  }

let trial r ~rate ~upto =
  let t = Trial.run r.w r.traffic ~upto ~rate in
  check r t;
  summarize r ~paced:(rate > 0.0) t

(* Closed-loop trials over the whole traffic, at least [min] of them,
   until [until] seconds after [start] (a trial is started only if one as
   long as the last still fits). *)
let closed_trials r ~min ~until ~start =
  let rec go acc =
    let fits =
      match acc with
      | s :: _ -> Unix.gettimeofday () -. start +. s.s_wall < until
      | [] -> true
    in
    if List.length acc >= min && not fits then List.rev acc
    else go (trial r ~rate:0.0 ~upto:r.n :: acc)
  in
  let flat = go [] in
  List.iter
    (fun s ->
      Printf.printf "  closed   %10.0f pkts/s  %.4f words/pkt (%s)\n"
        (float_of_int r.n /. s.s_wall)
        s.s_words s.s_breakdown)
    flat;
  flat

let throughput r flat = Stats.median (List.map (fun s -> float_of_int r.n /. s.s_wall) flat)

(* The highest paced rate at <= 2% loss whose backlog does not grow;
   0 when no probe passes. *)
let capacity r ~throughput =
  let epoch = int_of_float r.traffic.Inputs.capture_pps in
  let search () =
    let lo = ref (search_lo *. throughput) and hi = ref (search_hi *. throughput) in
    let best = ref 0.0 in
    for _ = 1 to probes do
      let rate = sqrt (!lo *. !hi) in
      let s = trial r ~rate ~upto:(min r.n epoch) in
      let pass = s.s_loss_pct <= loss_threshold_pct && not s.s_backlog_grows in
      Printf.printf "  probe    %10.0f pkts/s  loss %7.3f%% (%s)  backlog %s  %s\n%!" rate s.s_loss_pct
        s.s_breakdown
        (if s.s_backlog_grows then "grows" else "steady")
        (if pass then "pass" else "fail");
      if pass then begin
        best := Float.max !best rate;
        lo := rate
      end
      else hi := rate
    done;
    if !best = 0.0 then print_endline "  no probe sustained its rate: capacity 0";
    !best
  in
  List.fold_left ( +. ) 0.0 (List.init searches (fun _ -> search ())) /. float_of_int searches

(* Self-check of the open-loop feed and capture ring: at twice the
   closed-loop throughput, well above capacity, the ring must overflow. *)
let overload_check r ~throughput =
  let rate = 2.0 *. throughput in
  let s = trial r ~rate ~upto:r.n in
  Printf.printf "  overload %10.0f pkts/s  loss %7.3f%% (%s)\n%!" rate s.s_loss_pct s.s_breakdown;
  if s.s_loss_pct <= loss_threshold_pct then
    fail_run (Printf.sprintf "feed self-check: %.0f pkts/s lost only %.3f%%" rate s.s_loss_pct)

(* Self-check at a rate well below capacity: the ring never overflows and
   the feed keeps to its schedule. *)
let on_schedule_check s =
  match Stats.percentile s.s_lateness_ms 0.5 with
  | Some p50 when s.s_ring_drops = 0 && p50 < 5.0 -> ()
  | _ -> fail_run "feed self-check: a reference trial overflowed the ring or ran 5 ms late at its median"

let latency_of_query refs q =
  Array.concat (List.map (fun s -> Option.value (List.assoc_opt q s.s_latency_ms) ~default:[||]) refs)

(* Prints every query's latency, pooled over [refs]; returns, per trial,
   the rows of the workload's latency queries. *)
let report_latency r refs =
  List.iter
    (fun q ->
      let xs = latency_of_query refs q in
      Printf.printf "  latency %-14s %s  %s\n" q (show_percentile xs 0.5) (show_percentile xs 0.99))
    r.w.Trial.queries;
  List.map (fun s -> Array.concat (List.map (latency_of_query [ s ]) r.w.Trial.latency_queries)) refs

(* ---- the end-to-end run (--trace 0) ---------------------------------- *)

let measure r ~heap_mb ~seconds ~start =
  (* 1. closed loop *)
  let flat = closed_trials r ~min:5 ~until:(closed_share *. seconds) ~start in
  let throughput = throughput r flat in
  Printf.printf "throughput %.0f pkts/s (median of %d closed-loop trials; not a bounded metric, see README)\n"
    throughput (List.length flat);
  overload_check r ~throughput;
  (* 2. reference rate *)
  let rec refs acc =
    match acc with
    | s :: _ when List.length acc >= 2 && Unix.gettimeofday () -. start +. s.s_wall >= seconds -> acc
    | _ -> refs (trial r ~rate:reference_rate ~upto:r.n :: acc)
  in
  let refs = refs [] in
  List.iter on_schedule_check refs;
  let offered = List.fold_left (fun a s -> a + s.s_offered) 0 refs in
  let lost = List.fold_left (fun a s -> a + s.s_lost) 0 refs in
  let lateness = Array.concat (List.map (fun s -> s.s_lateness_ms) refs) in
  Printf.printf "trials: %d closed-loop, %d at %.0f pkts/s; %d checked against the oracle\n"
    (List.length flat) (List.length refs) reference_rate r.compared;
  Printf.printf "wrong_rows %d\n" r.wrong;
  Printf.printf "loss_pct %.4f (%d of %d offered)\n"
    (100.0 *. float_of_int lost /. float_of_int offered)
    lost offered;
  Printf.printf "feed lateness %s  %s\n" (show_percentile lateness 0.5) (show_percentile lateness 0.99);
  let latency = report_latency r refs in
  let metrics =
    [
      metric "setup_s" "s" (Stats.median r.setups);
      metric "delivered_pct" "%" (100.0 *. (1.0 -. (float_of_int lost /. float_of_int offered)));
      percentile_metric "latency_p50_ms" latency 0.50;
      percentile_metric "latency_p99_ms" latency 0.99;
      metric "alloc_words_per_pkt" "words" (Stats.median (List.map (fun s -> s.s_words) flat));
      metric "heap_peak_mb" "MB" heap_mb;
    ]
  in
  (metrics, offered, lost)

(* The heap trial comes first, before the traffic is generated: packets
   are made as they are pulled, so the major heap's high-water is the
   engine's, not the input's. They are handed over at the reference rate,
   evenly spaced, so that egress queues hold what they hold in steady
   state rather than whatever a closed loop happened to pile up. *)
let heap_trial w ~seed =
  let empty = { Inputs.packets = [||]; ts0 = 0.0; capture_pps = 1.0 } in
  let next = Inputs.merged ~duration:heap_capture_seconds ~seed () in
  let t0 = ref nan and k = ref 0 in
  let generate () =
    let now = Gigascope_obs.Clock.now_ns () in
    if Float.is_nan !t0 then t0 := now;
    let ahead = !t0 +. (float_of_int !k *. 1e9 /. reference_rate) -. now in
    if ahead > 1e6 then Thread.delay (ahead /. 1e9);
    incr k;
    next ()
  in
  ignore (Trial.run ~generate w empty ~upto:0 ~rate:0.0);
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* ---- the traced run (--trace 1) -------------------------------------- *)

let all_queries = List.sort_uniq compare (List.concat_map (fun (w : Trial.workload) -> w.Trial.queries) workloads)

let installed_nodes (w : Trial.workload) ~capability =
  let eng = E.create () in
  E.add_interface eng ~name:"eth0" ~capability ~feed:(fun () () -> None) ();
  ignore (Trial.or_fail "install" (E.install_program eng w.Trial.program));
  (eng, List.filter (fun n -> Node.kind n <> Node.Source) (Manager.nodes (E.manager eng)))

(* Every node any workload installs, so that every workload reports the
   same per-layer names; a node a workload does not have reads 0. *)
let all_nodes () =
  List.sort_uniq compare
    (List.concat_map
       (fun (w : Trial.workload) ->
         List.map Node.name (snd (installed_nodes w ~capability:w.Trial.capability)))
       workloads)

(* The filter program timed as bpf.run_ns: the one the workload's card
   runs; a Dumb card runs none, so then the one a filtering card would be
   given for the same plan (accept-all if the plan pushes no filter). *)
let bpf_program (w : Trial.workload) mode =
  match Layers.card_program mode with
  | Some p -> p
  | None -> (
      let eng, _ = installed_nodes w ~capability:E.Cap_bpf in
      match Option.bind (E.nic_of eng "eth0") (fun c -> Layers.card_program (Nic.mode c)) with
      | Some p -> p
      | None -> Gigascope_bpf.Filter.compile Gigascope_bpf.Filter.True)

let hist_total snap name =
  match Metrics.find snap name with Some (Metrics.Histogram h) -> h.Metrics.h_total | _ -> 0.0

let fold_gauges snap ~prefix ~suffix f init =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Gauge g when String.starts_with ~prefix name && String.ends_with ~suffix name -> f acc g
      | _ -> acc)
    init snap

(* One row per stage of a traced closed-loop trial; returns the summed
   node service time. *)
let waterfall (t : Trial.t) =
  let snap = t.Trial.snap in
  let n = t.Trial.offered in
  let wall_ns = t.Trial.wall_s *. 1e9 in
  let service node = hist_total snap (Printf.sprintf "rts.node.%s.service_ns" node) in
  let callbacks node = Option.value (List.assoc_opt node t.Trial.callback_ns) ~default:0.0 in
  let feed_ns = t.Trial.feed.Feed.feed_ns in
  let rows =
    [ ("feed (benchmark)", feed_ns) ]
    @ List.map
        (fun (name, kind) ->
          match kind with
          | Node.Source -> ("source " ^ name, service name -. feed_ns)
          | Node.Lfta -> ("lfta " ^ name, service name -. callbacks name)
          | Node.Hfta -> ("hfta " ^ name, service name -. callbacks name))
        t.Trial.nodes
    @ [ ("egress (callbacks)", List.fold_left (fun a (_, x) -> a +. x) 0.0 t.Trial.callback_ns) ]
  in
  let residual = wall_ns -. List.fold_left (fun a (_, x) -> a +. x) 0.0 rows in
  Printf.printf "waterfall: traced closed-loop trial, %d packets, wall %.1f ms\n" n (wall_ns /. 1e6);
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-34s %10.2f ms %6.1f%% %9.1f ns/pkt\n" name (ns /. 1e6) (100.0 *. ns /. wall_ns)
        (ns /. float_of_int n))
    (rows @ [ ("scheduler/channel residual", residual) ]);
  let ok = residual >= -.waterfall_tolerance *. wall_ns in
  Printf.printf "  %-34s %10.2f ms  measured rows %s wall time by more than %.0f%%\n" "wall"
    (wall_ns /. 1e6)
    (if ok then "do not overshoot" else "overshoot")
    (100.0 *. waterfall_tolerance);
  if not ok then fail_run "waterfall rows exceed wall time";
  List.fold_left (fun a (name, _) -> a +. service name) 0.0 t.Trial.nodes

let trace_run r =
  let w = r.w in
  (* closed loop, untraced and traced trials alternating *)
  let pairs =
    List.init 5 (fun _ ->
        let u = Trial.run w r.traffic ~upto:r.n ~rate:0.0 in
        check r u;
        let t = Trial.run ~trace:true w r.traffic ~upto:r.n ~rate:0.0 in
        check r t;
        (u, t))
  in
  let untraced = List.map (fun (u, _) -> summarize r ~paced:false u) pairs in
  let throughput = throughput r untraced in
  let traced_wall = Stats.median (List.map (fun (_, t) -> t.Trial.wall_s) pairs) in
  let untraced_wall = Stats.median (List.map (fun s -> s.s_wall) untraced) in
  let t = snd (List.nth pairs (List.length pairs - 1)) in
  let node_service = waterfall t in
  let trace_overhead_pct = 100.0 *. (traced_wall -. untraced_wall) /. untraced_wall in
  Printf.printf "trace overhead: %.1f%% (median wall %.4f s traced, %.4f s untraced)\n" trace_overhead_pct
    traced_wall untraced_wall;
  let capacity = capacity r ~throughput in
  (* paced at the reference rate, untraced, egress depth polled *)
  let p = Trial.run ~poll_egress:true w r.traffic ~upto:r.n ~rate:reference_rate in
  check r p;
  let ps = summarize r ~paced:true p in
  on_schedule_check ps;
  let latency = Array.concat (report_latency r [ ps ]) in
  Printf.printf "latency %s  %s\n" (show_percentile latency 0.5) (show_percentile latency 0.99);
  let wire_queries = if w.Trial.wire <> [] then w.Trial.wire else w.Trial.latency_queries in
  let wire_rows =
    Array.of_list
      (List.concat_map
         (fun q ->
           List.map
             (fun (_, row) -> Inputs.row_of_string row)
             (Option.value (List.assoc_opt q p.Trial.rows) ~default:[]))
         wire_queries)
  in
  let sub_cpu = List.fold_left (fun a (s : Sub.result) -> a +. s.Sub.cpu_ns) 0.0 p.Trial.subs in
  let sub_tuples = List.fold_left (fun a (s : Sub.result) -> a + s.Sub.tuples) 0 p.Trial.subs in
  let packets = r.traffic.Inputs.packets in
  let card = Option.get t.Trial.nic in
  let mode = Nic.mode card and stats = Nic.stats card in
  let payloads = Oracle.regex_candidates packets in
  let snap = t.Trial.snap and psnap = p.Trial.snap in
  let c name = float_of_int (Trial.counter snap name) in
  let per_pkt x = x /. float_of_int r.n in
  let source = fst (List.find (fun (_, k) -> k = Node.Source) t.Trial.nodes) in
  let service node = hist_total snap (Printf.sprintf "rts.node.%s.service_ns" node) in
  let callbacks node = Option.value (List.assoc_opt node t.Trial.callback_ns) ~default:0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let node_metrics =
    List.concat_map
      (fun name ->
        let tin = c (Printf.sprintf "rts.node.%s.tuples_in" name)
        and tout = c (Printf.sprintf "rts.node.%s.tuples_out" name) in
        let self = if List.mem_assoc name t.Trial.nodes then service name -. callbacks name else 0.0 in
        let m k u v = (Printf.sprintf "rts.%s.%s" name k, u, v) in
        [
          m "tuples_in" "count" tin;
          m "tuples_out" "count" tout;
          m "self_ns_per_tuple" "ns" (ratio self tin);
          m "evictions" "count" (c (Printf.sprintf "rts.node.%s.lfta.evictions" name));
          m "reduction" "ratio" (ratio tout tin);
        ])
      (all_nodes ())
  in
  let values =
    [
      ("throughput_pkts_s", "1/s", throughput);
      ("capacity_pkts_s", "1/s", capacity);
      ("feed.lateness_p99_ms", "ms", Option.value (Stats.percentile ps.s_lateness_ms 0.99) ~default:0.0);
    ]
    @ List.map
        (fun q ->
          ( Printf.sprintf "latency.%s.p50_ms" q, "ms",
            Option.value (Stats.percentile (latency_of_query [ ps ] q) 0.5) ~default:0.0 ))
        all_queries
    @ Layers.packet_path packets ~mode ~prog:(bpf_program w mode)
    @ [
        ( "nic.pass_ratio", "ratio",
          ratio (float_of_int stats.Nic.packets_delivered) (float_of_int stats.Nic.packets_seen) );
        ( "nic.bytes_per_pkt", "bytes",
          ratio (float_of_int stats.Nic.bytes_delivered) (float_of_int stats.Nic.packets_delivered) );
        ("source.self_ns_per_pkt", "ns", per_pkt (service source -. t.Trial.feed.Feed.feed_ns));
      ]
    @ Layers.regex payloads
    @ [
        ( "regex.calls", "count",
          if List.mem "e2_http" w.Trial.queries then float_of_int (Array.length payloads) else 0.0 );
      ]
    @ Layers.gsql w ~k:5
    @ [
        ("rts.chan.drops", "count", float_of_int (Trial.sum_counters snap ~prefix:"rts.chan." ~suffix:".drops"));
        ("rts.chan.high_water", "count", fold_gauges snap ~prefix:"rts.chan." ~suffix:".high_water" Float.max 0.0);
        ("rts.scheduler.rounds", "count", c "rts.scheduler.rounds");
        ("rts.scheduler.overhead_ns_per_pkt", "ns", per_pkt ((t.Trial.wall_s *. 1e9) -. node_service));
        ("rts.state.peak", "count", fold_gauges snap ~prefix:"rts.state." ~suffix:".peak" ( +. ) 0.0);
      ]
    @ Layers.wire wire_rows
    @ [
        ("net.egress.drops", "count", float_of_int (Trial.counter psnap "net.subscriber.drops"));
        ("net.egress.high_water", "count", float_of_int p.Trial.egress_high_water);
        ("net.frames", "count", float_of_int (Trial.counter psnap "net.frames_out"));
        ("client.next_ns", "ns", ratio sub_cpu (float_of_int sub_tuples));
        ("trace_overhead_pct", "%", trace_overhead_pct);
      ]
    @ node_metrics
  in
  Printf.printf "wrong_rows %d (%d trials checked against the oracle)\n" r.wrong r.compared;
  List.map (fun (name, unit_, value) -> metric name unit_ value) values

(* ---- output --------------------------------------------------------- *)

let json_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name m.value m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let refuse_knobs () =
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"GIGASCOPE_" kv then
        let name = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
        fail_run (name ^ " is set; the benchmark runs the engine with its defaults only"))
    (Unix.environment ())

let () =
  match Array.to_list Sys.argv with
  | [_; "--subscriber"; addr; query] -> Sub.child_main addr query
  | _ :: args ->
      refuse_knobs ();
      let rec opts acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
        | [] -> acc
        | x :: _ -> fail_run ("unexpected argument " ^ x)
      in
      let opts = opts [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> fail_run ("missing " ^ k) in
      let int_opt k = match int_of_string_opt (get k) with Some v -> v | None -> fail_run ("bad " ^ k) in
      let name = get "--workload" in
      let w =
        match List.find_opt (fun w -> w.Trial.name = name) workloads with
        | Some w -> w
        | None -> fail_run ("unknown workload " ^ name)
      in
      let seed = int_opt "--seed" and seconds = float_of_int (int_opt "--seconds") in
      let trace =
        match int_opt "--trace" with 0 -> false | 1 -> true | _ -> fail_run "--trace is 0 or 1"
      in
      Printf.printf
        "meta {\"workload\": %S, \"seed\": %d, \"seconds\": %.0f, \"trace\": %b, \"git_rev\": %S, \
         \"host_cores\": %d, \"ocaml\": %S}\n\
         %!"
        name seed seconds trace
        (Option.value (List.assoc_opt "--rev" opts) ~default:"unknown")
        (Domain.recommended_domain_count ()) Sys.ocaml_version;
      let start = Unix.gettimeofday () in
      let heap_mb = if trace then 0.0 else heap_trial w ~seed in
      let t_gen = Unix.gettimeofday () in
      let r = make_run w (Inputs.generate ~seed) in
      Printf.printf "traffic: %d packets, %.0f per capture second, generated in %.2f s\n%!" r.n
        r.traffic.Inputs.capture_pps
        (Unix.gettimeofday () -. t_gen);
      let metrics, attempted, lost =
        if trace then (trace_run r, r.n, 0) else measure r ~heap_mb ~seconds ~start
      in
      json_result ~correct:(r.wrong = 0) ~attempted ~failed:(lost + r.wrong) metrics;
      if r.wrong > 0 then exit 1
  | [] -> fail_run "no arguments"
