module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock

type stats = { rounds : int; heartbeat_requests : int }

(* Service-time sampling period outside trace mode: timing every round
   costs two clock reads per node per round, which the 5%-overhead budget
   on the hot path does not allow. *)
let default_service_sample = 8

let rec walk_upstream visited node =
  if not (List.memq node !visited) then begin
    visited := node :: !visited;
    if Node.kind node = Node.Source then Node.heartbeat node
    else Array.iter (fun (up, _) -> walk_upstream visited up) (Node.inputs node)
  end

let request_heartbeat node =
  let visited = ref [] in
  walk_upstream visited node

(* A plain loop: [Array.for_all] allocates a closure per call, and this
   runs for every node after every step. *)
let channels_empty node =
  let inputs = Node.inputs node in
  let empty = ref true in
  for i = 0 to Array.length inputs - 1 do
    if not (Channel.is_empty (snd inputs.(i))) then empty := false
  done;
  !empty

let default_quantum = 64

(* Drain before pull: re-step an operator while it made progress and
   input is still pending. Nodes run in topological order and nothing
   refills a node's inputs while it is stepped, so this ends, and what
   the sources pulled this round reaches the subscribers before the
   next pull. Without it, a burst larger than the quantum (an LFTA's
   epoch flush) crosses each hop one quantum per round, and every round
   waits on a source pull. *)
let drain node ~quantum =
  let made = Node.step_inputs node ~quantum in
  let again = ref made in
  while !again && not (channels_empty node) do
    again := Node.step_inputs node ~quantum
  done;
  made

let run ?quantum ?(max_rounds = 10_000_000) ?(heartbeats = true) ?heartbeat_period
    ?on_round ?(trace = false) ?(batch = 1) ?supervisor ?shed ?(latency_sample = 0)
    ?(state_slack = 0.0) mgr =
  (* A quantum smaller than the batch flushes every output builder before
     it fills, so the *default* quantum floors at the batch — the knobs
     compose. An explicit quantum wins: callers pinning the scheduling
     granularity (round-indexed hooks, granularity sweeps) keep the round
     structure they asked for, at the price of partial batches. *)
  let quantum = match quantum with Some q -> q | None -> max default_quantum batch in
  Manager.start mgr;
  let reg = Manager.metrics mgr in
  let rounds_c = Metrics.counter reg "rts.scheduler.rounds" in
  let hb_c = Metrics.counter reg "rts.scheduler.heartbeat_requests" in
  let sample = if trace then 1 else default_service_sample in
  Metrics.Gauge.set_int (Metrics.gauge reg "rts.scheduler.service_sample") sample;
  Metrics.Gauge.set_int (Metrics.gauge reg "rts.scheduler.batch") (max 1 batch);
  Metrics.Gauge.set_int (Metrics.gauge reg "rts.scheduler.latency_sample") (max 0 latency_sample);
  let nodes = Manager.nodes mgr in
  List.iter
    (fun n ->
      Node.set_batch n batch;
      Node.set_supervisor n supervisor;
      Node.set_shed n shed;
      Node.set_latency_sample n latency_sample;
      Node.set_state_slack n state_slack)
    nodes;
  (match supervisor with Some s -> Supervisor.register_metrics s reg | None -> ());
  (* [iter] counts scheduling iterations (max_rounds guard, sampling,
     periodic heartbeats, the on_round hook); [rounds] counts only the
     productive ones — iterations in which some node actually moved an
     item. The two diverge when every node is blocked awaiting heartbeats
     (punctuation-only iterations) and on the final wedged iteration, so
     the [rts.scheduler.rounds] metric tracks observable progress. *)
  let iter = ref 0 in
  let rounds = ref 0 in
  let heartbeat_requests = ref 0 in
  let finished () =
    List.for_all (fun n -> Node.exhausted n && channels_empty n) nodes
  in
  let result = ref None in
  (try
  while !result = None do
    if finished () then result := Some (Ok { rounds = !rounds; heartbeat_requests = !heartbeat_requests })
    else if !iter >= max_rounds then
      result := Some (Error (Printf.sprintf "scheduler: no completion after %d rounds" max_rounds))
    else begin
      incr iter;
      let timed = (!iter - 1) mod sample = 0 in
      let progress = ref false in
      List.iter
        (fun node ->
          let step () =
            if Node.kind node = Node.Source then Node.step_source node ~quantum
            else drain node ~quantum
          in
          let made =
            if timed then begin
              let t0 = Clock.now_ns () in
              let r = step () in
              Node.record_service node (Clock.now_ns () -. t0);
              r
            end
            else step ()
          in
          if made then progress := true)
        nodes;
      if !progress then begin
        incr rounds;
        Metrics.Counter.incr rounds_c
      end;
      let hb_fired = ref false in
      (match heartbeat_period with
      | Some period when period > 0 && !iter mod period = 0 ->
          List.iter
            (fun node ->
              if Node.kind node = Node.Source && not (Node.exhausted node) then begin
                Node.heartbeat node;
                hb_fired := true
              end)
            nodes
      | _ -> ());
      if heartbeats then
        List.iter
          (fun node ->
            match Node.blocked_input node with
            | Some i ->
                incr heartbeat_requests;
                Metrics.Counter.incr hb_c;
                hb_fired := true;
                let up, _ = (Node.inputs node).(i) in
                request_heartbeat up
            | None -> ())
          nodes;
      (match on_round with Some f -> f !iter | None -> ());
      (* A heartbeat pushes punctuation into channels, so it counts as
         progress for the next round. No item moved and nothing fired
         means either completion (checked next iteration) or a wedged
         network, which we surface rather than spin on. *)
      if (not !progress) && (not !hb_fired) && not (finished ()) then
        result := Some (Error "scheduler: wedged (no progress, not finished)")
    end
  done
  with Supervisor.Crashed _ as e -> result := Some (Error (Printexc.to_string e)));
  match !result with Some r -> r | None -> assert false

(* ---------------- parallel execution ------------------------------------ *)

(* Partition the network over [domains] execution domains: sources and
   LFTAs stay on domain 0 (the paper's runtime process, which owns the
   packet path and the source clocks), HFTAs are spread over the
   [domains - 1] worker domains. A node pinned via {!Node.set_placement}
   (the [placement] DEFINE property or gsq's [--placement]) goes exactly
   where it asks, including domain 0.

   The spread must be acyclic at the {e domain} level: cross-domain
   channels block when full ({!Xchannel.push}), and a domain blocked
   mid-push cannot step its other nodes, so a ring of domains each
   pushing into the next's full input is a permanent deadlock no
   heartbeat can break (naive round-robin creates one as soon as a chain
   of three HFTAs wraps back onto an earlier worker). Unpinned HFTAs are
   therefore assigned as pipeline stages, in topological order: an HFTA
   fed only by domain 0 starts a pipeline on the next worker
   (round-robin for load spread); an HFTA downstream of other HFTAs
   lands one worker above its highest upstream, saturating at the last
   worker. Every cross edge then goes from domain 0 into a worker or
   from a lower- to a strictly higher-numbered worker — a DAG by
   construction, and in a domain-level DAG the topologically last
   blocked domain always has a consumer that drains it. Pinning can
   still express a cycle; that is detected and rejected here rather than
   letting the run hang. *)
let partition ~domains nodes =
  let n_workers = domains - 1 in
  let dom = Hashtbl.create 32 in
  let next = ref 0 in
  List.iter
    (fun node ->
      let d =
        match (Node.kind node, Node.shard node) with
        | Node.Source, _ -> 0
        (* A shard replica goes to the worker owning its shard index,
           even when its kind is Lfta: the whole point of sharding is
           taking the per-tuple work off the packet-path domain. Shard s
           -> worker 1 + (s mod workers), so every replica of shard s
           (its filter, sub-aggregate, and any helpers) shares one
           domain and distinct shards land on distinct workers when
           there are enough. Explicit placement still wins. *)
        | (Node.Lfta | Node.Hfta), Some s when Node.placement node = None ->
            1 + (s mod n_workers)
        | Node.Lfta, _ -> 0
        | Node.Hfta, _ -> (
            match Node.placement node with
            | Some d -> ((d mod domains) + domains) mod domains
            | None ->
                let upstream_floor =
                  Array.fold_left
                    (fun acc (up, _) ->
                      match Hashtbl.find_opt dom (Node.name up) with
                      | Some d -> max acc d
                      | None -> acc)
                    0 (Node.inputs node)
                in
                if upstream_floor = 0 then begin
                  let p = 1 + (!next mod n_workers) in
                  incr next;
                  p
                end
                else min (upstream_floor + 1) n_workers)
      in
      Hashtbl.replace dom (Node.name node) d)
    nodes;
  (* Cycle check over the domain graph — only pinning can defeat the
     pipeline rule, but a hang is bad enough to verify unconditionally. *)
  let adj = Array.make domains [] in
  List.iter
    (fun node ->
      let dn = Hashtbl.find dom (Node.name node) in
      Array.iter
        (fun ((up : Node.t), _) ->
          let du = Hashtbl.find dom (Node.name up) in
          if du <> dn && not (List.mem dn adj.(du)) then adj.(du) <- dn :: adj.(du))
        (Node.inputs node))
    nodes;
  let color = Array.make domains 0 in
  let cycle = ref None in
  let rec dfs path d =
    if Option.is_none !cycle then
      match color.(d) with
      | 1 ->
          (* [path] is most-recent-first; the cycle runs d .. path-head d *)
          let seg = ref [] in
          (try
             List.iter
               (fun x ->
                 seg := x :: !seg;
                 if x = d then raise Exit)
               path
           with Exit -> ());
          cycle := Some (!seg @ [ d ])
      | 2 -> ()
      | _ ->
          color.(d) <- 1;
          List.iter (dfs (d :: path)) adj.(d);
          color.(d) <- 2
  in
  for d = 0 to domains - 1 do
    dfs [] d
  done;
  match !cycle with
  | Some ds ->
      Error
        (Printf.sprintf
           "scheduler: placement creates a cross-domain channel cycle (domains %s); blocking \
            cross-domain channels would deadlock — place each stage on a domain no lower than \
            its upstream HFTAs"
           (String.concat " -> " (List.map string_of_int ds)))
  | None ->
      let parts = Array.make domains [] in
      List.iter
        (fun node ->
          let p = Hashtbl.find dom (Node.name node) in
          parts.(p) <- node :: parts.(p))
        nodes;
      Ok (Array.map List.rev parts)

let run_parallel ?quantum ?(max_rounds = 10_000_000) ?(heartbeats = true)
    ?heartbeat_period ?(trace = false) ?(placement = []) ?(batch = 1) ?supervisor ?shed
    ?(latency_sample = 0) ?(state_slack = 0.0) ~domains mgr =
  let quantum = match quantum with Some q -> q | None -> max default_quantum batch in
  let apply_placement () =
    let rec go = function
      | [] -> Ok ()
      | (name, d) :: rest -> (
          match Manager.find mgr name with
          | Some node ->
              Node.set_placement node (Some d);
              go rest
          | None -> Error (Printf.sprintf "scheduler: --placement names unknown node %s" name))
    in
    go placement
  in
  match apply_placement () with
  | Error _ as e -> e
  | Ok () -> (
      if domains <= 1 then
        run ~quantum ~max_rounds ~heartbeats ?heartbeat_period ~trace ~batch ?supervisor ?shed
          ~latency_sample ~state_slack mgr
      else
      match partition ~domains (Manager.nodes mgr) with
      | Error _ as e -> e
      | Ok parts ->
        Manager.start mgr;
        let reg = Manager.metrics mgr in
        let rounds_c = Metrics.counter reg "rts.scheduler.rounds" in
        let hb_c = Metrics.counter reg "rts.scheduler.heartbeat_requests" in
        let sample = if trace then 1 else default_service_sample in
        Metrics.Gauge.set_int (Metrics.gauge reg "rts.scheduler.service_sample") sample;
        Metrics.Gauge.set_int (Metrics.gauge reg "rts.scheduler.domains") domains;
        Metrics.Gauge.set_int (Metrics.gauge reg "rts.scheduler.batch") (max 1 batch);
        Metrics.Gauge.set_int (Metrics.gauge reg "rts.scheduler.latency_sample") (max 0 latency_sample);
        let nodes = Manager.nodes mgr in
        List.iter
          (fun n ->
            Node.set_batch n batch;
            Node.set_supervisor n supervisor;
            Node.set_shed n shed;
            Node.set_latency_sample n latency_sample;
            Node.set_state_slack n state_slack)
          nodes;
        (match supervisor with Some s -> Supervisor.register_metrics s reg | None -> ());
        let part_of = Hashtbl.create 32 in
        Array.iteri
          (fun p ns -> List.iter (fun n -> Hashtbl.replace part_of (Node.name n) p) ns)
          parts;
        let shared = Domain_runner.make_shared ~partitions:domains in
        let signals = Domain_runner.signals shared in
        (* Promote every edge that crosses a domain boundary. This happens
           before any domain spawns, so registration in the metrics
           registry and the consumer-wakeup hooks are race-free. *)
        List.iter
          (fun node ->
            let pn = Hashtbl.find part_of (Node.name node) in
            Array.iter
              (fun ((up : Node.t), chan) ->
                if Hashtbl.find part_of (Node.name up) <> pn then begin
                  let already = Channel.is_cross chan in
                  (* Small capacity on purpose: a deep cross channel lets
                     the producer domain run unboundedly ahead, and a
                     downstream merge/join then buffers that whole lead
                     before its heartbeat punctuation catches up. *)
                  (* Room for at least two full batches, or a producer
                     ping-pongs against the bound on every push. *)
                  let xcap =
                    min (Channel.capacity chan) (max (max (4 * quantum) 64) (2 * batch))
                  in
                  let xc = Channel.promote_cross ~capacity:xcap chan in
                  Xchannel.set_on_push xc (fun () -> Domain_runner.notify signals.(pn));
                  if not already then begin
                    Manager.register_xchannel_metrics mgr xc;
                    Domain_runner.add_xchannel shared xc
                  end
                end)
              (Node.inputs node))
          nodes;
        let runners =
          List.filter_map
            (fun id ->
              match parts.(id) with
              | [] ->
                  (* no domain will ever own this signal; count it done
                     for the completion and wedge checks *)
                  Domain_runner.mark_exited signals.(id);
                  None
              | ns ->
                  Some
                    (Domain_runner.make ~id ~nodes:ns ~quantum ~heartbeats ~sample))
            (List.init (domains - 1) (fun i -> i + 1))
        in
        let handles = List.map (Domain_runner.spawn shared) runners in
        (* Domain 0: the single-threaded loop over sources + LFTAs (plus
           pinned HFTAs), with two extra duties — draining cross-domain
           heartbeat requests, and staying in the loop (servicing those
           requests) until every worker has exited, so the final join
           never waits on a parked domain. *)
        let my_nodes = parts.(0) in
        let iter = ref 0 in
        let rounds = ref 0 in
        let heartbeat_requests = ref 0 in
        let finished0 () =
          List.for_all (fun n -> Node.exhausted n && channels_empty n) my_nodes
          && Domain_runner.all_workers_exited shared
        in
        let loop () =
          let result = ref None in
          while !result = None do
            if Domain_runner.stopped shared then
              result :=
                Some
                  (Error
                     (Option.value (Domain_runner.error shared)
                        ~default:"scheduler: parallel run aborted"))
            else if finished0 () then result := Some (Ok ())
            else if !iter >= max_rounds then
              result :=
                Some
                  (Error (Printf.sprintf "scheduler: no completion after %d rounds" max_rounds))
            else begin
              incr iter;
              let timed = (!iter - 1) mod sample = 0 in
              let progress = ref false in
              List.iter
                (fun node ->
                  let step () =
                    if Node.kind node = Node.Source then Node.step_source node ~quantum
                    else Node.step_inputs node ~quantum
                  in
                  let made =
                    if timed then begin
                      let t0 = Clock.now_ns () in
                      let r = step () in
                      Node.record_service node (Clock.now_ns () -. t0);
                      r
                    end
                    else step ()
                  in
                  if made then progress := true)
                my_nodes;
              if !progress then begin
                incr rounds;
                Metrics.Counter.incr rounds_c
              end;
              let hb_fired = ref false in
              (match heartbeat_period with
              | Some period when period > 0 && !iter mod period = 0 ->
                  List.iter
                    (fun node ->
                      if Node.kind node = Node.Source && not (Node.exhausted node) then begin
                        Node.heartbeat node;
                        hb_fired := true
                      end)
                    my_nodes
              | _ -> ());
              if heartbeats then
                List.iter
                  (fun node ->
                    match Node.blocked_input node with
                    | Some i ->
                        incr heartbeat_requests;
                        Metrics.Counter.incr hb_c;
                        hb_fired := true;
                        let up, _ = (Node.inputs node).(i) in
                        request_heartbeat up
                    | None -> ())
                  my_nodes;
              (match Domain_runner.take_heartbeats shared with
              | [] -> ()
              | pending ->
                  hb_fired := true;
                  List.iter
                    (fun src ->
                      incr heartbeat_requests;
                      Metrics.Counter.incr hb_c;
                      Node.heartbeat src)
                    pending);
              (* Quiet is not necessarily a wedge here: a worker may be
                 mid-quantum or about to queue a heartbeat request. But if
                 the probe shows every domain parked with nothing pending
                 anywhere, nobody will ever wake anybody — report the same
                 wedge the single-threaded scheduler does. Otherwise park
                 until a worker pokes us (heartbeat queue, a push into a
                 pinned HFTA's input, its own park or exit, or an abort). *)
              if (not !progress) && (not !hb_fired) && not (finished0 ()) then begin
                if Domain_runner.probe_wedged shared then
                  result := Some (Error "scheduler: wedged (no progress, not finished)")
                else Domain_runner.wait signals.(0)
              end
            end
          done;
          match !result with Some r -> r | None -> assert false
        in
        let res = try loop () with e -> Error (Printexc.to_string e) in
        (* On error, unblock everyone before joining; on success every
           worker has already exited its loop (finished0 waits for that),
           so the joins return promptly. *)
        (match res with
        | Error msg -> Domain_runner.fail shared msg
        | Ok () -> ());
        List.iter Domain.join handles;
        match (res, Domain_runner.error shared) with
        | Error _, Some msg -> Error msg
        | Error msg, None -> Error msg
        | Ok (), Some msg -> Error msg
        | Ok (), None -> Ok { rounds = !rounds; heartbeat_requests = !heartbeat_requests })
