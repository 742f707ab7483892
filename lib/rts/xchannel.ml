module Metrics = Gigascope_obs.Metrics
module Clock = Gigascope_obs.Clock

type t = {
  name : string;
  capacity : int;  (* in items, matching Channel *)
  q : Batch.t Queue.t;
  mutable n_items : int;  (* items buffered *)
  lock : Mutex.t;
  not_full : Condition.t;
  mutable closed : bool;
  mutable hw : int;
  mutable on_push : unit -> unit;
  tuples_in : Metrics.Counter.t;
  dropped : Metrics.Counter.t;
  blocked_ns : Metrics.Counter.t;
  occupancy : Metrics.Histogram.t;  (* items per pushed batch *)
}

let create ?(capacity = 4096) ~name () =
  if capacity <= 0 then invalid_arg "Xchannel.create: capacity must be positive";
  {
    name;
    capacity;
    q = Queue.create ();
    n_items = 0;
    lock = Mutex.create ();
    not_full = Condition.create ();
    closed = false;
    hw = 0;
    on_push = ignore;
    tuples_in = Metrics.Counter.make ();
    dropped = Metrics.Counter.make ();
    blocked_ns = Metrics.Counter.make ();
    occupancy = Metrics.Histogram.make ();
  }

let name t = t.name
let capacity t = t.capacity

let set_on_push t f = t.on_push <- f

let push_batch t batch =
  let size = Batch.items batch in
  (* Chaos hooks, fired before the lock: an injected stall models a slow
     consumer domain; an injected close reproduces the
     close-while-producer-mid-push race (the closer below is [close]
     inlined — [close] itself is defined later and must not be called
     under our lock). *)
  Faults.stall_point ~chan:t.name;
  Faults.xclose_point ~chan:t.name (fun () ->
      Mutex.lock t.lock;
      t.closed <- true;
      Condition.broadcast t.not_full;
      Mutex.unlock t.lock;
      t.on_push ());
  Mutex.lock t.lock;
  (* Backpressure: block until the consumer makes room. The wait is the
     cross-domain analogue of a dropped tuple, so it is accounted
     ([blocked_ns]) the way the single-threaded Channel accounts drops.
     A batch is admitted whole once any room exists, so depth can
     overshoot [capacity] by one batch — blocking a partially admissible
     batch until it fits exactly would deadlock when a batch is larger
     than the capacity. *)
  if (not t.closed) && t.n_items >= t.capacity then begin
    let t0 = Clock.now_ns () in
    while (not t.closed) && t.n_items >= t.capacity do
      Condition.wait t.not_full t.lock
    done;
    Metrics.Counter.add t.blocked_ns (int_of_float (Clock.now_ns () -. t0))
  end;
  let accepted = not t.closed in
  if accepted then begin
    Queue.push batch t.q;
    t.n_items <- t.n_items + size;
    if t.n_items > t.hw then t.hw <- t.n_items;
    let nt = Batch.n_tuples batch in
    if nt > 0 then Metrics.Counter.add t.tuples_in nt;
    Metrics.Histogram.observe t.occupancy (float_of_int size)
  end
  else begin
    (* Closed channel: count what was lost — every tuple the batch held,
       plus a non-Eof control item (Eof on a closed channel is the
       normal shutdown overlap, not a loss). *)
    let lost =
      Batch.n_tuples batch
      + (match Batch.ctrl batch with
        | Some (Item.Punct _ | Item.Flush | Item.Gap _) -> 1
        | Some (Item.Eof | Item.Error _) | Some (Item.Tuple _) | None -> 0)
    in
    if lost > 0 then Metrics.Counter.add t.dropped lost
  end;
  Mutex.unlock t.lock;
  (* Notify outside the lock: the consumer's signal has its own mutex and
     taking both at once invites lock-order cycles. *)
  if accepted then t.on_push ();
  accepted

let pop_batch t =
  Mutex.lock t.lock;
  let batch = Queue.take_opt t.q in
  (match batch with
  | Some b ->
      t.n_items <- t.n_items - Batch.items b;
      Condition.signal t.not_full
  | None -> ());
  Mutex.unlock t.lock;
  batch

let length t =
  Mutex.lock t.lock;
  let n = t.n_items in
  Mutex.unlock t.lock;
  n

let is_empty t = length t = 0

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_full;
  Mutex.unlock t.lock;
  t.on_push ()

let is_closed t =
  Mutex.lock t.lock;
  let c = t.closed in
  Mutex.unlock t.lock;
  c

(* [hw] is written under the lock by the producer; read it under the
   lock too, or a mid-run exposition from another domain is a race. *)
let high_water t =
  Mutex.lock t.lock;
  let hw = t.hw in
  Mutex.unlock t.lock;
  hw

let tuples_in t = Metrics.Counter.get t.tuples_in
let drops t = Metrics.Counter.get t.dropped
let blocked_ns t = Metrics.Counter.get t.blocked_ns

let register_metrics t reg ~prefix =
  Metrics.attach_counter reg (prefix ^ ".tuples_in") t.tuples_in;
  Metrics.attach_counter reg (prefix ^ ".drops") t.dropped;
  Metrics.attach_counter reg (prefix ^ ".blocked_ns") t.blocked_ns;
  Metrics.attach_gauge_fn reg (prefix ^ ".depth") (fun () -> float_of_int (length t));
  Metrics.attach_gauge_fn reg (prefix ^ ".high_water") (fun () -> float_of_int (high_water t));
  Metrics.attach_histogram reg (prefix ^ ".batch_items") t.occupancy
