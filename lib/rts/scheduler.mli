(** Cooperative execution of the query network.

    Round-robin over registered nodes in topological order: sources
    produce a quantum of items, query nodes drain their inputs before
    the next node runs (see {!run}). After each round, operators that
    report a blocked input get heartbeats requested on their behalf (the
    "on-demand" ordering-update tokens of Section 3), propagated upstream
    to the sources, whose clocks answer with punctuations.

    A run completes when every source is exhausted, every channel drained,
    and EOF has propagated to the sinks. *)

type stats = {
  rounds : int;
  heartbeat_requests : int;
}

val default_quantum : int
(** 64: items per node per round when no [quantum] is given (floored at
    the batch). Also {!Gigascope.Engine.run}'s default batch. *)

val run :
  ?quantum:int ->
  ?max_rounds:int ->
  ?heartbeats:bool ->
  ?heartbeat_period:int ->
  ?on_round:(int -> unit) ->
  ?trace:bool ->
  ?batch:int ->
  ?supervisor:Supervisor.t ->
  ?shed:float ->
  ?latency_sample:int ->
  ?state_slack:float ->
  Manager.t ->
  (stats, string) result
(** [state_slack] (default 0 = off) arms the per-node state watchdog
    ({!Node.set_state_slack}): a query node holding more than its
    certified bound × slack is treated as crashed (Gap announced, then
    the supervisor's verdict — poison/escalate — applies). Nodes
    without a certified bound are never checked.

    [latency_sample] (default 0 = off) arms end-to-end latency
    measurement ({!Node.set_latency_sample}): every N-th source tuple
    is stamped at ingest, the stamp rides the batched data plane, and
    ingest→deliver durations land in each terminal node's
    [rts.latency.<name>] histogram. The interval is published as the
    [rts.scheduler.latency_sample] gauge.

    [supervisor] installs crash supervision on every node
    ({!Node.set_supervisor}); a [Fail_fast] escalation surfaces as this
    function's [Error] result instead of an exception. [shed] arms
    source-side load shedding at that high-water fraction
    ({!Node.set_shed}).

    [batch] (default 1) sets every node's output batch size
    ({!Node.set_batch}): tuples move through channels in runs of up to
    [batch], sealed early by any control item and flushed at the end of
    every node step, so the emitted item sequence — and therefore the
    subscriber output — is byte-identical for every batch size. The
    effective size is published as the [rts.scheduler.batch] gauge.
    The {e default} quantum is floored at [batch] so a large batch is
    not flushed early; an explicit [quantum] wins (round-indexed hooks
    keep their round structure) at the price of partial batches.

    [quantum] (default [max 64 batch]) bounds the items a source pulls
    per round, and the items a query node takes from each input per
    step. A query node that made progress is stepped again while any of
    its inputs is non-empty (drain before pull), so whatever the
    operators emit from a round's pulls reaches the subscribers within
    that round, and a burst
    larger than the quantum (an LFTA's epoch flush) does not wait a
    source pull per quantum. The output does not depend on the quantum.
    [max_rounds] (default 10_000_000) bounds scheduling iterations as a
    wedge guard;
    [heartbeats] (default true) enables on-demand punctuation (requested
    by blocked operators); [heartbeat_period] additionally fires every
    source's clock punctuation every N iterations — the periodic
    injection of Tucker & Maier that the paper contrasts with its
    on-demand scheme; [on_round] runs after each scheduling iteration —
    the hook through which a live application changes query parameters or
    flushes queries mid-stream. Implies {!Manager.start}.

    The run feeds the manager's metrics registry: [rts.scheduler.rounds]
    and [rts.scheduler.heartbeat_requests] counters, plus each node's
    [service_ns] histogram. [rounds] (the stat and the metric) counts
    only {e productive} rounds — iterations in which some node moved at
    least one item; iterations where every node is blocked awaiting
    heartbeat punctuation are scheduling overhead, not progress, and are
    not counted. Service times are sampled (one round in 8); [trace]
    (default false) times {e every} round instead, for
    EXPLAIN-ANALYZE-grade per-operator cost ({!Manager.trace_report}).
    The effective sampling period is published as the
    [rts.scheduler.service_sample] gauge. *)

val run_parallel :
  ?quantum:int ->
  ?max_rounds:int ->
  ?heartbeats:bool ->
  ?heartbeat_period:int ->
  ?trace:bool ->
  ?placement:(string * int) list ->
  ?batch:int ->
  ?supervisor:Supervisor.t ->
  ?shed:float ->
  ?latency_sample:int ->
  ?state_slack:float ->
  domains:int ->
  Manager.t ->
  (stats, string) result
(** Multicore execution: the paper's process-per-HFTA architecture
    (Section 2.2) mapped onto OCaml domains. Domain 0 (the caller) runs
    the sources and LFTAs — the packet path; each HFTA runs on one of
    [domains - 1] worker domains as a pipeline stage (see {!partition}),
    unless pinned by [placement] (node name → domain index; modulo
    [domains]) or a prior {!Node.set_placement}. Channels crossing a
    domain boundary are promoted to blocking cross-domain channels
    ({!Xchannel}) — the inter-process "shared memory" edges get
    backpressure instead of drops, and their metrics move under
    [rts.xchannel.*]. A [placement] whose domain graph is cyclic is
    rejected with an error: bounded blocking channels would deadlock on
    such a cycle.

    Blocked HFTAs on worker domains still get on-demand heartbeats: the
    request is queued to domain 0, which owns the source clocks.

    [domains <= 1] degrades to {!run} (same semantics, zero spawns).
    The returned stats count domain 0's productive rounds only; worker
    progress shows up in node and channel metrics. On any domain's error
    the run aborts all domains and returns the first error. A wedged
    network (no domain can make progress, nothing pending anywhere — e.g.
    with [heartbeats:false], or an operator that never completes) is
    detected by a cross-domain termination probe and reported as the
    same wedge error {!run} produces, never as a hang. Publishes the
    [rts.scheduler.domains] gauge.

    Parallel output is deterministic: every operator's emitted tuple
    sequence depends only on its per-channel input tuple sequences, not
    on punctuation timing or domain interleaving, so a parallel run
    produces byte-identical subscriber output to a single-threaded run
    (verified by test/test_parallel.ml).

    With [domains > 1], unlike {!run}, every node is stepped once per
    round: a worker domain's inputs fill while it runs, so draining
    them until empty need not end.

    [batch] behaves as in {!run}; one cross-domain push then moves a
    whole batch under a single lock acquire, and the cross-channel
    capacity is clamped up so it always holds at least two batches. *)

val request_heartbeat : Node.t -> unit
(** Walk upstream from the node and fire every source's clock punctuation
    (exposed for tests and custom drivers). *)

val partition : domains:int -> Node.t list -> (Node.t list array, string) result
(** Assign nodes to execution domains ([nodes] in registration order,
    which is topological). Sources and LFTAs land on domain 0; unpinned
    HFTAs become pipeline stages: a stage never lands on a lower-numbered
    worker than its upstream HFTAs, so every cross-domain edge ascends
    and the domain graph is acyclic — the property that keeps the
    blocking cross-domain channels deadlock-free. Explicit placements
    ({!Node.set_placement}) are honoured verbatim; if they make the
    domain graph cyclic the partition is rejected ([Error] naming the
    cycle). Exposed for tests. *)
