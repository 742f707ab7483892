(** The LFTA form of aggregation: a small direct-mapped hash table.

    "An LFTA can perform aggregation, but it uses a small direct-mapped
    hash table. Hash table collisions result in a tuple computed from the
    ejected group being written to the output stream. Because of temporal
    locality, aggregation even with a small hash table is effective in
    early data reduction." (Section 3.)

    The operator therefore emits {e partial} aggregates — possibly several
    per logical group — and relies on a downstream HFTA super-aggregate to
    complete the computation. Epoch advancement flushes the whole table
    and then punctuates the epoch column (see [epoch_out]).
    Emitted partials carry no ordering promise except bandedness on the
    epoch key, which {!Order_infer} imputes. *)

type config = {
  table_bits : int;  (** table size is [2 ^ table_bits] slots *)
  pred : (Value.t array -> bool) option;  (** preliminary filtering *)
  keys : (Value.t array -> Value.t option) array;
  epoch_key : int option;
  direction : Order_prop.direction;
  band : float;
  aggs : Agg_fn.spec array;  (** sub-aggregate specs (see {!Agg_fn.sub_kinds}) *)
  assemble : keys:Value.t array -> aggs:Value.t array -> Value.t array;
  punct_in : (int * (Value.t -> Value.t option)) option;
      (** input punctuation field and its translation onto the epoch-key
          domain (as in {!Aggregate}); with [epoch_out] also set, a
          source punctuation flushes the table and re-emits the
          translated bound — the liveness signal a quiet input (an
          empty shard) still gives downstream. [None]: punctuation
          still flushes, but is swallowed. *)
  epoch_out : int option;
      (** output position of the epoch key. When set, every epoch
          advance emits, right after its flush, one
          [Punct [(epoch_out, b)]] where [b] is
          {!Order_prop.behind_threshold} of the new high-water: no
          partial behind [b] follows, so the super-aggregating HFTA
          closes the old epoch on the new epoch's first tuple instead
          of waiting for the first new-epoch partial to leave the
          table. Nothing is emitted before the first epoch. *)
}

type t

val make : config -> t
val op : t -> Operator.t

val evictions : t -> int
(** Collisions that ejected a partial group — the cost of the small
    table. *)

val emitted : t -> int
(** Partial tuples written to the output stream; [emitted/input] is the
    early-data-reduction factor measured in experiment A1. *)

val register_metrics : t -> Gigascope_obs.Metrics.t -> prefix:string -> unit
(** Attach under [prefix]: [evictions] and [emitted] counters (the same
    cells {!evictions}/{!emitted} read), plus polled gauges [occupied],
    [slots] and [eviction_rate] (evictions per emitted partial — the
    "table too small" signal). *)
