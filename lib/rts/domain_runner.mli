(** The cross-domain plumbing of a run on several domains.

    {!Scheduler.run} keeps sources and LFTAs on the calling domain (the
    packet path) and hands each worker domain a list of HFTAs; every
    domain runs the scheduler's one round loop. This module holds what
    the domains share: wakeup signals (a worker parks on its signal when
    a round moves nothing, and pushes into its cross-domain inputs wake
    it), the wedge probe, the queue of heartbeat requests for domain 0,
    and the worker spawn. *)

type signal

val notify : signal -> unit

val wait : ?poke:(unit -> unit) -> signal -> unit
(** Returns immediately if a {!notify} landed since the last {!wait}
    (the hint protocol — no lost wakeups). [poke] runs under the signal
    lock, after the signal is marked parked and before the wait: a
    worker passes [notify] on domain 0's signal so the wedge probe
    ({!probe_wedged}) re-runs whenever a domain goes quiet, and cannot
    observe the worker as awake after the announcement. *)

val mark_exited : signal -> unit
(** Mark the owning domain's loop as returned; the signal counts as
    quiescent for {!probe_wedged} and done for {!all_workers_exited}
    from then on. Also used for partitions that never spawn. *)

type shared
(** State shared by all domains of one run: stop flag, first
    error, per-partition wakeup signals, the cross-domain channels (for
    error shutdown), and the pending cross-domain heartbeat requests. *)

val make_shared : partitions:int -> shared
val add_xchannel : shared -> Xchannel.t -> unit
val signals : shared -> signal array

val fail : shared -> string -> unit
(** Record the first error, then stop all domains: raise the stop flag,
    close every cross-domain channel (unblocking producers), wake every
    parked domain. *)

val error : shared -> string option
val stopped : shared -> bool

val all_workers_exited : shared -> bool
(** Every worker signal (index [>= 1]) is {!mark_exited}. *)

val probe_wedged : shared -> bool
(** Domain-0 termination detection: true only when the run is provably
    frozen — every worker parked or exited, no pending cross-domain
    heartbeat request, no wakeup pending for domain 0, and no {!notify}
    observed anywhere during the probe. With no workers that is simply
    "no wakeup pending". The scheduler calls it after a round that moved
    nothing and reports a wedge instead of parking forever. *)

val request_heartbeat : shared -> Node.t -> unit
(** Worker-side: walk upstream from [node] to its sources (a pure read of
    the frozen wiring) and queue them for domain 0, which owns source
    state and fires the actual clock punctuation. *)

val take_heartbeats : shared -> Node.t list
(** Domain-0 side: drain and dedupe the queued heartbeat requests. *)

val spawn : shared -> id:int -> label:string -> (unit -> unit) -> unit Domain.t
(** Run a worker loop on a fresh domain owning signal [id]. When the
    loop returns or raises, the signal is {!mark_exited} and domain 0 is
    poked; an escaped exception becomes the run's error ({!fail}, naming
    the domain and [label]), stopping every other domain. *)
