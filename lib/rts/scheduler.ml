module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock

type stats = { rounds : int; heartbeat_requests : int }

(* Service-time sampling period outside trace mode: timing every round
   costs two clock reads per node per round, which the 5%-overhead budget
   on the hot path does not allow. *)
let default_service_sample = 8

let default_quantum = 64

let rec walk_upstream visited node =
  if not (List.memq node !visited) then begin
    visited := node :: !visited;
    if Node.kind node = Node.Source then Node.heartbeat node
    else Array.iter (fun (up, _) -> walk_upstream visited up) (Node.inputs node)
  end

let request_heartbeat node =
  let visited = ref [] in
  walk_upstream visited node

(* Plain loops: [Array.for_all] allocates a closure per call, and these
   run for every node every round. *)
let inputs_empty node =
  let inputs = Node.inputs node in
  let empty = ref true in
  for i = 0 to Array.length inputs - 1 do
    if not (Channel.is_empty (snd inputs.(i))) then empty := false
  done;
  !empty

let upstreams_exhausted node =
  let inputs = Node.inputs node in
  let done_ = ref true in
  for i = 0 to Array.length inputs - 1 do
    if not (Node.exhausted (fst inputs.(i))) then done_ := false
  done;
  !done_

(* Drain before pull: re-step an operator while it made progress and
   input is still pending. Only for a node whose inputs are all local:
   nodes run in topological order and nothing refills a local input
   while its consumer is stepped, so this ends, and what the sources
   pulled this round reaches the subscribers before the next pull.
   Without it, a burst larger than the quantum (an LFTA's epoch flush)
   crosses each hop one quantum per round, and every round waits on a
   source pull. A cross-domain input fills while it is drained, so a
   node with one is stepped once per round. *)
let drain node ~quantum =
  let made = Node.step_inputs node ~quantum in
  let again = ref made in
  while !again && not (inputs_empty node) do
    again := Node.step_inputs node ~quantum
  done;
  made

(* ---------------- one round over one domain's nodes --------------------- *)

(* The nodes one domain steps, in topological order. Domain 0 and every
   worker run the same [round] over their lane; only what surrounds it
   (completion, parking, the heartbeat hand-off) differs. *)
type lane = {
  nodes : Node.t array;
  drains : bool array;  (* per node: every input local, so drain it *)
  quantum : int;
  sample : int;  (* service-time sampling period, in rounds *)
  heartbeats : bool;
  period : int;  (* periodic source heartbeats every N rounds; 0 = off *)
  request : Node.t -> unit;  (* heartbeat the sources above this node *)
  mutable iter : int;  (* rounds run so far, productive or not *)
  mutable hb_fired : bool;  (* the last round fired or requested a heartbeat *)
}

let make_lane ~quantum ~sample ~heartbeats ~period ~request nodes =
  let nodes = Array.of_list nodes in
  let drains =
    Array.map
      (fun n -> not (Array.exists (fun (_, c) -> Channel.is_cross c) (Node.inputs n)))
      nodes
  in
  { nodes; drains; quantum; sample; heartbeats; period; request; iter = 0; hb_fired = false }

let step lane i node =
  let quantum = lane.quantum in
  if Node.kind node = Node.Source then Node.step_source node ~quantum
  else if lane.drains.(i) then drain node ~quantum
  else Node.step_inputs node ~quantum

(* One round: each source pulls a quantum, each query node is stepped;
   then, if due, sources fire their periodic heartbeat, and every node
   blocked on an input requests one on its behalf (the on-demand
   ordering-update tokens of Section 3). Blocked inputs are consulted
   every round, not only when nothing moved: an operator can keep
   absorbing one input while starving on another (a merge over skewed
   streams), and only the heartbeat bounds its buffer. True if any node
   moved an item. *)
let round lane =
  lane.iter <- lane.iter + 1;
  let timed = (lane.iter - 1) mod lane.sample = 0 in
  let progress = ref false in
  let n = Array.length lane.nodes in
  for i = 0 to n - 1 do
    let node = lane.nodes.(i) in
    let made =
      if timed then begin
        let t0 = Clock.now_ns () in
        let m = step lane i node in
        Node.record_service node (Clock.now_ns () -. t0);
        m
      end
      else step lane i node
    in
    if made then progress := true
  done;
  lane.hb_fired <- false;
  if lane.period > 0 && lane.iter mod lane.period = 0 then
    for i = 0 to n - 1 do
      let node = lane.nodes.(i) in
      if Node.kind node = Node.Source && not (Node.exhausted node) then begin
        Node.heartbeat node;
        lane.hb_fired <- true
      end
    done;
  if lane.heartbeats then
    for i = 0 to n - 1 do
      let node = lane.nodes.(i) in
      match Node.blocked_input node with
      | Some j ->
          lane.hb_fired <- true;
          lane.request (fst (Node.inputs node).(j))
      | None -> ()
    done;
  !progress

(* A poisoned node announces Error+Eof (and so reads as exhausted) while
   its upstream may still be producing. A worker that exited the moment
   its drain caught up would leave that producer blocked forever pushing
   into a full cross channel nobody pops — and a producer blocked
   mid-push is not parked, so the wedge probe cannot see it. So a lane
   is finished only once every upstream of a poisoned node is exhausted
   too. Non-poisoned nodes emit Eof only after consuming their inputs'
   Eofs, so for them the extra condition already holds. *)
let lane_finished lane =
  let n = Array.length lane.nodes in
  let i = ref 0 in
  while
    !i < n
    &&
    let node = lane.nodes.(!i) in
    Node.exhausted node && inputs_empty node
    && ((not (Node.is_poisoned node)) || upstreams_exhausted node)
  do
    incr i
  done;
  !i = n

(* A worker domain's loop: a round, and when nothing moved, exit if done
   or park until an input channel is pushed, a requested heartbeat's
   punctuation arrives, or the run aborts. Parking only when no input
   moved keeps the network deadlock-free: the producer of a full channel
   never waits on its own consumer. The park pokes domain 0 so it re-runs
   its wedge probe — a run where every domain parks must end in an
   error, not a hang. *)
let worker_loop shared ~id lane () =
  let signals = Domain_runner.signals shared in
  let poke0 () = Domain_runner.notify signals.(0) in
  let continue = ref true in
  while !continue && not (Domain_runner.stopped shared) do
    if not (round lane) then
      if lane_finished lane then continue := false
      else Domain_runner.wait ~poke:poke0 signals.(id)
  done

(* ---------------- partitioning ------------------------------------------- *)

(* Partition the network over [domains] execution domains: sources and
   LFTAs stay on domain 0 (the paper's runtime process, which owns the
   packet path and the source clocks), HFTAs are spread over the
   [domains - 1] worker domains. A node pinned via {!Node.set_placement}
   (the [placement] DEFINE property or gsq's [--placement]) goes exactly
   where it asks, including domain 0. With one domain there are no
   workers and everything lands on domain 0.

   The spread must be acyclic at the {e domain} level: cross-domain
   channels block when full ({!Xchannel.push_batch}), and a domain
   blocked mid-push cannot step its other nodes, so a ring of domains
   each pushing into the next's full input is a permanent deadlock no
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
  let domains = max 1 domains in
  let n_workers = domains - 1 in
  let dom = Hashtbl.create 32 in
  let next = ref 0 in
  List.iter
    (fun node ->
      let d =
        match (Node.kind node, Node.shard node) with
        | Node.Source, _ -> 0
        | _ when n_workers = 0 -> 0
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

(* ---------------- the scheduler ------------------------------------------ *)

let run ?quantum ?(max_rounds = 10_000_000) ?(heartbeats = true) ?heartbeat_period ?on_round
    ?(trace = false) ?(domains = 1) ?(placement = []) ?(batch = 1) ?supervisor ?shed
    ?(latency_sample = 0) ?(state_slack = 0.0) mgr =
  (* A quantum smaller than the batch flushes every output builder before
     it fills, so the *default* quantum floors at the batch — the knobs
     compose. An explicit quantum wins: callers pinning the scheduling
     granularity (round-indexed hooks, granularity sweeps) keep the round
     structure they asked for, at the price of partial batches. *)
  let quantum = match quantum with Some q -> q | None -> max default_quantum batch in
  let domains = max 1 domains in
  let rec apply_placement = function
    | [] -> Ok ()
    | (name, d) :: rest -> (
        match Manager.find mgr name with
        | Some node ->
            Node.set_placement node (Some d);
            apply_placement rest
        | None -> Error (Printf.sprintf "scheduler: --placement names unknown node %s" name))
  in
  let parts =
    if on_round <> None && domains > 1 then
      (* the hook mutates live operator state from domain 0; racing it
         against worker domains is unsound *)
      Error "scheduler: on_round needs one domain (its hook races worker domains)"
    else Result.bind (apply_placement placement) (fun () -> partition ~domains (Manager.nodes mgr))
  in
  match parts with
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
      (* Promote every edge that crosses a domain boundary (none on one
         domain). This happens before any domain spawns, so registration
         in the metrics registry and the consumer-wakeup hooks are
         race-free. *)
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
                   before its heartbeat punctuation catches up. Room for
                   at least two full batches, or a producer ping-pongs
                   against the bound on every push. *)
                let xcap = min (Channel.capacity chan) (max (max (4 * quantum) 64) (2 * batch)) in
                let xc = Channel.promote_cross ~capacity:xcap chan in
                Xchannel.set_on_push xc (fun () -> Domain_runner.notify signals.(pn));
                if not already then begin
                  Manager.register_xchannel_metrics mgr xc;
                  Domain_runner.add_xchannel shared xc
                end
              end)
            (Node.inputs node))
        nodes;
      let period = match heartbeat_period with Some p when p > 0 -> p | _ -> 0 in
      let lane ~request ns = make_lane ~quantum ~sample ~heartbeats ~period ~request ns in
      let handles =
        List.filter_map
          (fun id ->
            match parts.(id) with
            | [] ->
                (* no domain will ever own this signal; count it done
                   for the completion and wedge checks *)
                Domain_runner.mark_exited signals.(id);
                None
            | ns ->
                (* A worker cannot fire source clocks: sources live on
                   domain 0, so its heartbeat requests queue there. *)
                let l = lane ~request:(Domain_runner.request_heartbeat shared) ns in
                Some
                  (Domain_runner.spawn shared ~id
                     ~label:(String.concat "," (List.map Node.name ns))
                     (worker_loop shared ~id l)))
          (List.init (domains - 1) (fun i -> i + 1))
      in
      let rounds = ref 0 in
      let heartbeat_requests = ref 0 in
      let count_request () =
        incr heartbeat_requests;
        Metrics.Counter.incr hb_c
      in
      let lane0 =
        lane
          ~request:(fun up ->
            count_request ();
            request_heartbeat up)
          parts.(0)
      in
      (* Domain 0 stays in the loop until every worker has exited, serving
         their queued heartbeat requests, so the final join never waits on
         a parked domain. *)
      let finished () = lane_finished lane0 && Domain_runner.all_workers_exited shared in
      let rec loop () =
        if Domain_runner.stopped shared then
          Error
            (Option.value (Domain_runner.error shared) ~default:"scheduler: run aborted")
        else if finished () then
          Ok { rounds = !rounds; heartbeat_requests = !heartbeat_requests }
        else if lane0.iter >= max_rounds then
          Error (Printf.sprintf "scheduler: no completion after %d rounds" max_rounds)
        else begin
          let progress = round lane0 in
          if progress then begin
            incr rounds;
            Metrics.Counter.incr rounds_c
          end;
          (match Domain_runner.take_heartbeats shared with
          | [] -> ()
          | pending ->
              lane0.hb_fired <- true;
              List.iter
                (fun src ->
                  count_request ();
                  Node.heartbeat src)
                pending);
          (match on_round with Some f -> f lane0.iter | None -> ());
          (* A heartbeat pushes punctuation into channels, so it counts
             as progress for the next round. Quiet is not necessarily a
             wedge with workers: one may be mid-quantum or about to queue
             a heartbeat request. But if the probe shows every domain
             parked with nothing pending anywhere (always the case on one
             domain), nobody will ever wake anybody: report the wedge.
             Otherwise park until a worker pokes us (heartbeat queue, a
             push into a pinned HFTA's input, its own park or exit, or an
             abort). *)
          if (not progress) && (not lane0.hb_fired) && not (finished ()) then begin
            if Domain_runner.probe_wedged shared then
              Error "scheduler: wedged (no progress, not finished)"
            else begin
              Domain_runner.wait signals.(0);
              loop ()
            end
          end
          else loop ()
        end
      in
      (* One failure contract at every domain count: an exception that
         escapes a step becomes the run's [Error], and stops the workers.
         An interrupt is the caller's, not the run's: it propagates once
         every domain has stopped. *)
      let res, interrupt =
        match loop () with
        | r -> (r, None)
        | exception (Sys.Break as e) -> (Error "scheduler: interrupted", Some e)
        | exception e -> (Error (Printexc.to_string e), None)
      in
      (match res with Error msg -> Domain_runner.fail shared msg | Ok _ -> ());
      List.iter Domain.join handles;
      Option.iter raise interrupt;
      match Domain_runner.error shared with Some msg -> Error msg | None -> res
