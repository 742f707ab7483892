(** Bounded SPSC cross-domain channel (mutex + condvar) carrying batches.

    The parallel scheduler's replacement for the shared-memory ring
    between an LFTA and an HFTA when the two run on different OCaml
    domains. Unlike {!Channel}, which drops on overflow (a slow HFTA must
    not stall the packet path within one domain), the cross-domain edge
    blocks the producer — backpressure instead of loss — and accounts the
    stall time in [blocked_ns]. Drops happen only after {!close} (error
    shutdown), so a crashed consumer domain cannot wedge its producer.

    The transport unit is a {!Batch}: one lock acquire, one queue
    operation and one condvar signal move a whole run of tuples across
    the domain boundary. Capacity, depth and high-water are measured in
    {e items} (tuples plus control items), matching {!Channel}; a batch
    is admitted whole once any room exists, so depth can briefly
    overshoot the capacity by one batch.

    Single producer, single consumer: the owning domains of the two
    endpoint nodes. {!pop_batch} is non-blocking; a consumer with
    nothing to read parks on its {!Domain_runner} signal, which
    [on_push] pokes. *)

type t

val create : ?capacity:int -> name:string -> unit -> t
(** Default capacity 4096 items, matching {!Channel}. *)

val name : t -> string
val capacity : t -> int

val set_on_push : t -> (unit -> unit) -> unit
(** Hook run after every successful push (and after {!close}), outside
    the channel lock — the consumer domain's wakeup. Set before the
    consumer domain spawns. *)

val push_batch : t -> Batch.t -> bool
(** Blocks while the channel is full. False (and counted drops — the
    batch's tuples plus a non-Eof control item) only when the channel is
    closed. *)

val pop_batch : t -> Batch.t option
(** Non-blocking; signals a producer waiting on a full channel. *)

val length : t -> int
(** Buffered items (tuples plus control items). *)

val is_empty : t -> bool

val close : t -> unit
(** Mark closed and wake a blocked producer; subsequent pushes are
    dropped. Used for error propagation from a crashed domain. Items
    already queued remain poppable. *)

val is_closed : t -> bool

val high_water : t -> int
val tuples_in : t -> int
val drops : t -> int

val blocked_ns : t -> int
(** Cumulative nanoseconds producers spent blocked on a full channel. *)

val register_metrics : t -> Gigascope_obs.Metrics.t -> prefix:string -> unit
(** Attach [tuples_in], [drops] and [blocked_ns] counters, polled
    [depth] and [high_water] gauges, and the [batch_items] occupancy
    histogram (items per pushed batch) under [prefix] (the manager uses
    [rts.xchannel.<from>-><to>]). *)
