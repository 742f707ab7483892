(** Ordering properties of stream attributes (Section 2.1 of the paper).

    Timestamps and sequence numbers in network streams generally increase
    (or decrease) with a tuple's ordinal position; Gigascope declares these
    as {e ordered attributes} and uses their properties — inherent in the
    source or imputed through operators — to turn blocking operators into
    bounded-state stream operators. *)

type direction = Asc | Desc

type t =
  | Unordered
  | Strict of direction  (** strictly increasing / decreasing *)
  | Monotone of direction  (** non-strictly increasing / decreasing *)
  | Nonrepeating
      (** monotone nonrepeating — e.g. after hashing a strict attribute;
          never takes the same value twice but in no useful order *)
  | Banded of direction * float
      (** within [band] of the running extremum; e.g. Netflow start times
          are banded-increasing(30 s) because flows dump every 30 s *)
  | In_group of string list * direction
      (** increasing within each group defined by the named fields, e.g.
          Netflow start time within a 5-tuple *)

val usable_for_window : t -> bool
(** Whether a join window / merge can be keyed on the attribute: any
    directional property (strict, monotone, banded) qualifies. *)

val usable_for_epoch : t -> bool
(** Whether group-by on the attribute closes groups (aggregation epochs):
    directional properties qualify; [Nonrepeating] and [In_group] do not
    (a new value says nothing about other groups). *)

val band_of : t -> float option
(** The slack on the high-water mark: 0 for strict/monotone, the band for
    banded, [None] for unusable properties. *)

val direction_of : t -> direction option

val weaken : t -> t -> t
(** Least upper bound: the strongest property implied by both — used when
    merging streams whose attributes have different declared properties. *)

val imputed_through_arithmetic : t -> monotone_fn:bool -> t
(** Property of [f(a)] for a monotone nondecreasing [f] (e.g. [time/60]):
    strictness is lost, direction and bandedness survive; a
    non-monotone [f] yields [Unordered]. *)

val ahead : direction -> Value.t -> Value.t -> bool
(** [ahead d a b]: does [a] come strictly after [b] in stream direction
    [d]? *)

val behind_threshold : direction -> band:float -> Value.t -> Value.t
(** The closing threshold implied by a high-water value [frontier] of an
    attribute banded by [band] in direction [d]: [frontier - band]
    ([+ band] for [Desc]). No later tuple lies strictly behind it, so
    groups behind it are closed and it is the firm bound an epoch
    punctuation carries. An Int frontier gives an Int threshold, floored
    ([Asc]) or ceiled ([Desc]); a frontier with no numeric value is its
    own threshold. Shared by {!Aggregate} and {!Lfta_aggregate}. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
