(* Timed replays of single layers: each layer's public entry point called
   in a loop over the workload's own inputs, from outside the engine. *)

module Packet = Gigascope_packet.Packet
module Nic = Gigascope_nic.Nic
module Bpf = Gigascope_bpf
module Regex = Gigascope_regex.Regex
module Wire = Gigascope_net.Wire
module Batch = Gigascope_rts.Batch
module Clock = Gigascope_obs.Clock

(* Each replay runs for at least this long, over whole passes of its
   input. *)
let min_replay_ns = 150e6

(* [f] over every element of [inputs], repeated; returns ns per call and
   words allocated per call. *)
let replay inputs f =
  let n = Array.length inputs in
  if n = 0 then (0.0, 0.0)
  else begin
    let calls = ref 0 and words = ref 0.0 in
    let t0 = Clock.now_ns () in
    while Clock.now_ns () -. t0 < min_replay_ns do
      let w0 = Trial.allocated_words () in
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
      words := !words +. (Trial.allocated_words () -. w0);
      calls := !calls + n
    done;
    let ns = Clock.now_ns () -. t0 in
    (ns /. float_of_int !calls, !words /. float_of_int !calls)
  end

let card_program = function
  | Nic.Dumb -> None
  | Nic.Filtering { prog; _ } | Nic.Programmable { prog; _ } -> prog

let snap_len = function
  | Nic.Dumb -> max_int
  | Nic.Filtering { snap_len; _ } | Nic.Programmable { snap_len; _ } -> snap_len

type t = (string * string * float) list
(** name, unit, value *)

(* [mode]: the card mode the engine configured for this workload; [prog]:
   the filter program timed under [bpf.run_ns] (see README.md). *)
let packet_path (packets : Packet.t array) ~mode ~prog : t =
  let wires = Array.map Packet.encode packets in
  let encode_ns, encode_words = replay packets Packet.encode in
  let snap = snap_len mode in
  let truncate_ns, truncate_words = replay wires (fun w -> Packet.truncate ~snap_len:snap w) in
  let card = Nic.create ~mode () in
  let delivered = Array.of_list (List.filter_map (fun w -> Nic.deliver card w) (Array.to_list wires)) in
  let decode_ns, _ = replay delivered (fun w -> Packet.decode ~ts:0.0 w) in
  let deliver_ns, _ = replay wires (fun w -> Nic.deliver card w) in
  let bpf_ns, _ = replay wires (fun w -> Bpf.Vm.run prog w) in
  let proto = Option.get (Gigascope.Default_protocols.find "tcp") in
  let interpret_ns, interpret_words = replay packets proto.Gigascope.Default_protocols.interpret in
  [
    ("packet.encode_ns", "ns", encode_ns);
    ("packet.truncate_ns", "ns", truncate_ns);
    ("packet.decode_ns", "ns", decode_ns);
    ("packet.words_per_pkt", "words", encode_words +. truncate_words);
    ("nic.deliver_ns", "ns", deliver_ns);
    ("bpf.run_ns", "ns", bpf_ns);
    ("source.interpret_ns", "ns", interpret_ns);
    ("source.interpret_words", "words", interpret_words);
  ]

let regex (payloads : string array) : t =
  let rx = Regex.compile Inputs.e2_regex in
  let ns, _ = replay payloads (Regex.matches rx) in
  [("regex.match_ns", "ns", ns)]

(* The rows a subscriber received, re-framed in batches of [batch] and
   pushed through the wire codec. *)
let wire (rows : Gigascope_rts.Value.t array array) : t =
  let batch = 64 in
  let n = Array.length rows in
  let frames =
    Array.init
      ((n + batch - 1) / batch)
      (fun i -> Wire.Batch (Batch.make (Array.sub rows (i * batch) (min batch (n - (i * batch)))) None))
  in
  let per_tuple x = x *. float_of_int (Array.length frames) /. float_of_int (max 1 n) in
  let encode_ns, _ = replay frames Wire.encode in
  let encoded = Array.map Wire.encode frames in
  let decode_ns, _ = replay encoded (fun b -> Wire.decode b ~pos:0 ~len:(Bytes.length b)) in
  let bytes = Array.fold_left (fun a b -> a + Bytes.length b) 0 encoded in
  [
    ("wire.encode_ns_per_tuple", "ns", per_tuple encode_ns);
    ("wire.decode_ns_per_tuple", "ns", per_tuple decode_ns);
    ("wire.bytes_per_tuple", "bytes", float_of_int bytes /. float_of_int (max 1 n));
  ]

(* Compile and install times of the workload's program, median of [k]. *)
let gsql (w : Trial.workload) ~k : t =
  let compile () =
    let eng = Gigascope.Engine.create () in
    let t0 = Clock.now_ns () in
    ignore
      (Trial.or_fail "compile"
         (Gigascope_gsql.Compile.compile_program (Gigascope.Engine.catalog eng) w.Trial.program));
    (Clock.now_ns () -. t0) /. 1e9
  in
  let install () =
    let eng = Gigascope.Engine.create () in
    Gigascope.Engine.add_interface eng ~name:"eth0" ~capability:w.Trial.capability
      ~feed:(fun () () -> None)
      ();
    let t0 = Clock.now_ns () in
    ignore (Trial.or_fail "install" (Gigascope.Engine.install_program eng w.Trial.program));
    (Clock.now_ns () -. t0) /. 1e9
  in
  [
    ("gsql.compile_s", "s", Stats.median (List.init k (fun _ -> compile ())));
    ("gsql.install_s", "s", Stats.median (List.init k (fun _ -> install ())));
  ]
