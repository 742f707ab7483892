(** Cooperative execution of the query network.

    One loop at every domain count. Each domain steps its nodes in
    topological order, one {e round} at a time: sources produce a
    quantum of items, query nodes drain their inputs before the next
    node runs (see {!run}). After each round, operators that report a
    blocked input get heartbeats requested on their behalf (the
    "on-demand" ordering-update tokens of Section 3), propagated
    upstream to the sources, whose clocks answer with punctuations.

    A run completes when every source is exhausted, every channel
    drained, and EOF has propagated to the sinks. *)

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
  ?domains:int ->
  ?placement:(string * int) list ->
  ?batch:int ->
  ?supervisor:Supervisor.t ->
  ?shed:float ->
  ?latency_sample:int ->
  ?state_slack:float ->
  Manager.t ->
  (stats, string) result
(** Run the network to completion on [domains] (default 1) OCaml
    domains: the paper's process-per-HFTA architecture (Section 2.2).
    Domain 0 (the caller) runs the sources and LFTAs, the packet path;
    each HFTA runs on one of [domains - 1] worker domains as a pipeline
    stage (see {!partition}), unless pinned by [placement] (node name →
    domain index, modulo [domains]; an unknown name is an [Error]) or a
    prior {!Node.set_placement}. With one domain nothing is spawned and
    every node runs on the caller.

    {b The round.} Every domain runs the same round over its nodes: a
    source pulls up to [quantum] items; a query node takes up to
    [quantum] items from each input per step. A query node whose inputs
    are all local is stepped again while it made progress and an input
    is still non-empty (drain before pull), so whatever the operators
    emit from a round's pulls reaches the subscribers within that round,
    and a burst larger than the quantum (an LFTA's epoch flush) does not
    wait a source pull per quantum. A node with a cross-domain input is
    stepped once per round: that input fills while it is drained. On
    one domain every input is local, and so is every input of a node on
    domain 0 (see {!partition}). The output does not depend on the
    quantum, the batch or the domain count.

    [quantum] (default [max 64 batch]) bounds the items a source pulls
    per round and a query node takes from each input per step. [batch]
    (default 1) sets every node's output batch size ({!Node.set_batch}):
    tuples move through channels in runs of up to [batch], sealed early
    by any control item and flushed at the end of every node step, so
    the emitted item sequence, and therefore the subscriber output, is
    byte-identical for every batch size. The {e default} quantum is
    floored at [batch] so a large batch is not flushed early; an
    explicit [quantum] wins (round-indexed hooks keep their round
    structure) at the price of partial batches.

    {b Across domains.} Channels crossing a domain boundary are promoted
    to blocking cross-domain channels ({!Xchannel}): the inter-process
    "shared memory" edges get backpressure instead of drops, and their
    metrics move under [rts.xchannel.*]. Their capacity is clamped up to
    hold at least two batches, and one push moves a whole batch under a
    single lock acquire. A [placement] whose domain graph is cyclic is
    rejected with an error: bounded blocking channels would deadlock on
    such a cycle. A worker parks when a round moves nothing, until a
    push into one of its inputs wakes it. A blocked node requests a
    heartbeat by walking upstream to its sources; on a worker the
    request is queued to domain 0, which owns the source clocks. Every
    operator's emitted tuple sequence depends only on its per-channel
    input tuple sequences, not on punctuation timing or domain
    interleaving, so the subscriber output is byte-identical to a
    one-domain run (verified by test/test_parallel.ml).

    {b Failures.} An exception that escapes a step becomes the run's
    [Error] and stops every domain; on several domains the first
    error wins. [Sys.Break] is re-raised once every domain has stopped.
    A wedged network (no domain can make progress and nothing is
    pending anywhere: e.g. with [heartbeats:false], or an operator that
    never completes) is reported as an [Error], never as a hang.
    [max_rounds] (default 10_000_000) bounds domain 0's rounds as a
    further wedge guard.

    [heartbeats] (default true) enables on-demand punctuation (requested
    by blocked operators); [heartbeat_period] additionally fires every
    source's clock punctuation every N rounds — the periodic injection
    of Tucker & Maier that the paper contrasts with its on-demand
    scheme. [on_round] runs on domain 0 after each round — the hook
    through which a live application changes query parameters or
    flushes queries mid-stream. The hook mutates live operator state, so
    it is accepted only with one domain; with more the run is an
    [Error]. Implies {!Manager.start}.

    [supervisor] installs crash supervision on every node
    ({!Node.set_supervisor}); a [Fail_fast] escalation surfaces as an
    [Error] like any other escaped exception. [shed] arms source-side
    load shedding at that high-water fraction ({!Node.set_shed}).
    [state_slack] (default 0 = off) arms the per-node state watchdog
    ({!Node.set_state_slack}): a query node holding more than its
    certified bound × slack is treated as crashed (Gap announced, then
    the supervisor's verdict — poison/escalate — applies). Nodes
    without a certified bound are never checked. [latency_sample]
    (default 0 = off) arms end-to-end latency measurement
    ({!Node.set_latency_sample}): every N-th source tuple is stamped at
    ingest, the stamp rides the batched data plane, and ingest→deliver
    durations land in each terminal node's [rts.latency.<name>]
    histogram.

    The run feeds the manager's metrics registry: [rts.scheduler.rounds]
    and [rts.scheduler.heartbeat_requests] counters, each node's
    [service_ns] histogram, and the [rts.scheduler.domains],
    [rts.scheduler.batch], [rts.scheduler.latency_sample] and
    [rts.scheduler.service_sample] gauges. [rounds] (the stat and the
    metric) counts only domain 0's {e productive} rounds, those in which
    some node moved at least one item; rounds where every node is
    blocked awaiting heartbeat punctuation are scheduling overhead, not
    progress. Worker progress shows in node and channel metrics.
    Service times are sampled one round in 8; [trace] (default false)
    times {e every} round instead, for EXPLAIN-ANALYZE-grade
    per-operator cost ({!Manager.trace_report}). *)

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
    cycle). With [domains = 1] every node lands on domain 0. Exposed
    for tests. *)
