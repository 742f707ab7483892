(* The benchmark's packet feed, the function the engine's source pulls.

   Closed loop: the next packet is handed over as soon as it is asked for.

   Open loop: packet [i] becomes due at [t0 + (ts_i - ts_0) * scale],
   where [scale] maps capture time onto the offered rate, whether or not
   the engine is keeping up. Due packets enter a fixed-size capture ring
   that drops new arrivals when full, the way a capture card's ring does.
   Arrivals are admitted lazily, on each pull, in due order: no pull
   happens between two pulls, so the occupancy each arrival sees — and
   therefore every drop — is the one a separate producer would have
   produced. When the ring is empty the feed sleeps until the next packet
   is due, releasing the runtime lock to the server's writer threads.

   Receipt and due times are CLOCK_MONOTONIC nanoseconds. *)

module Packet = Gigascope_packet.Packet
module Clock = Gigascope_obs.Clock

let ring_capacity = 4096

type t = {
  packets : Packet.t array;
  offers : Packet.t option array;  (** [Some] of each packet, made before the trial *)
  upto : int;  (** replay packets [0, upto) *)
  ts0 : float;
  ns_per_capture_s : float;  (** 0 = closed loop *)
  timed : bool;  (** accumulate the feed's own time (traced runs) *)
  ring : int array;
  mutable head : int;
  mutable count : int;
  mutable next_arrival : int;
  mutable taken : int;
  mutable ring_drops : int;
  mutable arriving : int;  (** pulls made while packets were still to arrive *)
  mutable t0 : float;
  mutable feed_ns : float;
  lateness : float array;  (** ns behind schedule, per taken packet *)
  occupancy : int array;  (** ring occupancy seen by each pull *)
  mutable on_pull : unit -> unit;
}

let make ?(timed = false) ~(traffic : Inputs.traffic) ~upto ~rate () =
  {
    packets = traffic.Inputs.packets;
    offers = Array.map Option.some traffic.Inputs.packets;
    upto;
    ts0 = traffic.Inputs.ts0;
    ns_per_capture_s = (if rate > 0.0 then 1e9 *. traffic.Inputs.capture_pps /. rate else 0.0);
    timed;
    ring = Array.make ring_capacity 0;
    head = 0;
    count = 0;
    next_arrival = 0;
    taken = 0;
    ring_drops = 0;
    arriving = 0;
    t0 = nan;
    feed_ns = 0.0;
    lateness = (if rate > 0.0 then Array.make upto 0.0 else [||]);
    occupancy = (if rate > 0.0 then Array.make upto 0 else [||]);
    on_pull = ignore;
  }

let paced t = t.ns_per_capture_s > 0.0

let due_of_ts t ts = t.t0 +. ((ts -. t.ts0) *. t.ns_per_capture_s)
let due t i = due_of_ts t t.packets.(i).Packet.ts

let admit t now =
  while t.next_arrival < t.upto && due t t.next_arrival <= now do
    if t.count < ring_capacity then begin
      t.ring.((t.head + t.count) mod ring_capacity) <- t.next_arrival;
      t.count <- t.count + 1
    end
    else t.ring_drops <- t.ring_drops + 1;
    t.next_arrival <- t.next_arrival + 1
  done

let rec pull_paced t =
  let now = Clock.now_ns () in
  admit t now;
  if t.count > 0 then begin
    let i = t.ring.(t.head) in
    t.head <- (t.head + 1) mod ring_capacity;
    t.count <- t.count - 1;
    t.lateness.(t.taken) <- now -. due t i;
    t.occupancy.(t.taken) <- t.count;
    t.taken <- t.taken + 1;
    if t.next_arrival < t.upto then t.arriving <- t.taken;
    t.offers.(i)
  end
  else if t.next_arrival >= t.upto then None
  else begin
    let wait_s = (due t t.next_arrival -. now) /. 1e9 in
    if wait_s > 0.0 then Thread.delay wait_s;
    pull_paced t
  end

let pull t =
  if t.taken >= t.upto && not (paced t) then None
  else begin
    t.on_pull ();
    if paced t then begin
      if Float.is_nan t.t0 then t.t0 <- Clock.now_ns ();
      pull_paced t
    end
    else begin
      if Float.is_nan t.t0 then t.t0 <- Clock.now_ns ();
      let p = t.offers.(t.taken) in
      t.taken <- t.taken + 1;
      p
    end
  end

let next t () =
  if t.timed then begin
    let s = Clock.now_ns () in
    let r = pull t in
    t.feed_ns <- t.feed_ns +. (Clock.now_ns () -. s);
    r
  end
  else pull t

(* Packets that were due but never delivered to the engine. *)
let ring_drops t = t.ring_drops

(* The backlog grows when the ring never drains during the last quarter
   of the pulls made while packets were still arriving (after the last
   arrival every backlog drains). Below capacity the ring empties between
   bursts (an epoch flush makes one); above it, occupancy only climbs. *)
let backlog_grows t =
  let n = t.arriving in
  n >= 100
  &&
  let low = ref max_int in
  for i = 3 * n / 4 to n - 1 do
    low := min !low t.occupancy.(i)
  done;
  !low > 32

let lateness_ns t = Array.sub t.lateness 0 t.taken
