(** Stream channels between query nodes.

    Models the shared-memory ring buffers of the real system: bounded FIFO
    with drop accounting (the paper's performance metric is precisely "how
    high can the input rate be before tuples drop").

    The transport unit is a {!Batch}, and the only one: one ring slot
    holds one batch, so a run of tuples costs one push and one pop
    however long it is. A single item travels as {!Batch.of_item};
    flattening the batch sequence always yields the same item sequence
    the tuple-at-a-time plane carried. A Local ring's capacity bounds
    {e batches}, so the item capacity scales with the batch size; drop
    accounting is always per item. *)

type t

val create : ?capacity:int -> name:string -> unit -> t
(** Default capacity 4096 batches (= items at batch size 1). *)

val name : t -> string
val capacity : t -> int

val push_batch : t -> Batch.t -> bool
(** Local channels: false when full, counting every tuple the batch
    carried (plus a non-Eof control item) as drops — except a batch
    sealed by [Eof], whose control item is always delivered (tuples
    dropped, a buffered batch evicted if necessary) so a full channel
    cannot wedge shutdown. Channels promoted by {!promote_cross} block
    instead of dropping (backpressure across the domain boundary) and
    refuse only once closed. *)

val pop_batch : t -> Batch.t option
(** Dequeue the oldest batch. *)

val length : t -> int
(** Buffered items (tuples plus control items). A running count, kept on
    push, pop and Eof-forced eviction: O(1) however full the ring. *)

val is_empty : t -> bool

val tuples_in : t -> int
(** Tuples successfully enqueued (punctuation and EOF not counted). *)

val drops : t -> int
(** Items rejected by a full ring, counted {e per item}: a rejected
    batch adds every tuple it contained. *)

val high_water : t -> int
(** Local channels: ring slots (batches); promoted channels: items. *)

val promote_cross : ?capacity:int -> t -> Xchannel.t
(** Switch this channel's transport to a bounded SPSC cross-domain
    channel (idempotent; buffered batches carry over in order). [capacity] defaults to the
    channel's own; the parallel scheduler passes a small bound so
    backpressure keeps producer and consumer domains rate-matched — the
    paper's fixed-size ring buffers between the runtime process and each
    HFTA process (Section 2.2). It is clamped up to whatever is already
    buffered, since promotion happens on one domain before any worker
    spawns and a blocking push here could never be drained. Called on
    edges whose endpoints land on different domains. *)

val is_cross : t -> bool

val cross : t -> Xchannel.t option
(** The cross-domain transport, once promoted. *)

val register_metrics : t -> Gigascope_obs.Metrics.t -> prefix:string -> unit
(** Attach this channel's counters ([tuples_in], [drops]), polled gauges
    ([depth], [high_water]) and the [batch_items] occupancy histogram
    (items per pushed batch) under [prefix]. The cells are the channel's
    own accounting — {!tuples_in} and {!drops} read the same counters —
    so registration adds no cost to {!push_batch}. *)
