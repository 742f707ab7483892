(* The benchmark's inputs: seeded traffic, the GSQL of each workload, and
   the one text form every output row is compared and shipped in. *)

module Packet = Gigascope_packet.Packet
module Gen = Gigascope_traffic.Gen
module Value = Gigascope_rts.Value

(* Capture-time shape of the traffic: the paper's Section 4 workload as
   the repository's host model states it (Gigascope_sim.Params): a
   60 Mbit/s port-80 component, [http_fraction] of it HTTP, plus
   background, with a nominal mean packet of [mean_pkt_bytes] and no
   bursts. The total is 300 Mbit/s, one of Section 4's offered rates and
   the rate of the e2 experiment's traffic (bench/main.ml), so an epoch
   (one capture second) holds 50,000 packets and port 80 carries a fifth
   of them. The flow population is the e2 traffic's 2,048 flows, split
   between the two components in proportion to their rates.

   Port-80 and background traffic come from two generators merged in
   timestamp order, as the model keeps them apart: the port-80 share is
   then fixed by the rates, not by whether one seed's heaviest flow
   happens to be a port-80 flow. *)
let section4 = Gigascope_sim.Params.default_workload ~background_mbps:240.0
let total_flows = 2048

(* Two capture seconds: two full epochs, so every trial closes an epoch
   on the arrival of the next one and one at the end of its input. *)
let capture_seconds = 2.0

type traffic = {
  packets : Packet.t array;
  ts0 : float;  (** capture timestamp of the first packet *)
  capture_pps : float;  (** packets per capture second *)
}

let components =
  let open Gigascope_sim.Params in
  let total = offered_mbps section4 in
  [ (section4.port80_mbps, 1.0); (section4.background_mbps, 0.0) ]
  |> List.map (fun (mbps, port80_fraction) ->
         ( mbps,
           port80_fraction,
           max 1 (int_of_float (Float.round (float_of_int total_flows *. mbps /. total))) ))

let gen_config ~duration ~seed ~source (mbps, port80_fraction, n_flows) =
  {
    Gen.default with
    Gen.seed = (seed * List.length components) + source;
    duration;
    rate_mbps = mbps;
    n_flows;
    port80_fraction;
    http_fraction = section4.Gigascope_sim.Params.http_fraction;
    (* the generator adds 54 header bytes to its mean payload *)
    mean_payload = section4.Gigascope_sim.Params.mean_pkt_bytes - 54;
    bursty = section4.Gigascope_sim.Params.bursty;
  }

(* The merged stream as a pull function, [None] after [duration] capture
   seconds. *)
let merged ~duration ~seed () =
  let gens =
    Array.of_list (List.mapi (fun source c -> Gen.create (gen_config ~duration ~seed ~source c)) components)
  in
  let heads = Array.map Gen.next gens in
  fun () ->
    let best = ref (-1) in
    Array.iteri
      (fun i h ->
        match (h, if !best < 0 then None else heads.(!best)) with
        | Some p, Some q when p.Packet.ts >= q.Packet.ts -> ()
        | Some _, _ -> best := i
        | None, _ -> ())
      heads;
    if !best < 0 then None
    else begin
      let p = heads.(!best) in
      heads.(!best) <- Gen.next gens.(!best);
      p
    end

let generate ~seed =
  let next = merged ~duration:capture_seconds ~seed () in
  let rec go acc = match next () with Some p -> go (p :: acc) | None -> Array.of_list (List.rev acc) in
  let packets = go [] in
  let n = Array.length packets in
  let ts0 = packets.(0).Packet.ts in
  let span = packets.(n - 1).Packet.ts -. ts0 in
  { packets; ts0; capture_pps = float_of_int n /. span }

(* The five production-like queries of the e2 experiment. *)
let e2_program =
  {|
  DEFINE { query_name e2_port80cnt; }
  SELECT tb, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4 and protocol = 6 and destport = 80
  GROUP BY time/1 as tb

  DEFINE { query_name e2_http; }
  SELECT tb, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4 and protocol = 6 and destport = 80
    and str_match_regex(payload, '^[^\n]*HTTP/1.*') = TRUE
  GROUP BY time/1 as tb

  DEFINE { query_name e2_ports; }
  SELECT tb, destport, count(*) as cnt, sum(len) as bytes
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, destport

  DEFINE { query_name e2_subnets; }
  SELECT tb, truncate_ip(srcip, 16) as subnet, count(*) as cnt
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, truncate_ip(srcip, 16) as subnet

  DEFINE { query_name e2_flows; }
  SELECT tb, srcip, destip, srcport, destport, count(*) as pkts, sum(len) as bytes
  FROM eth0.tcp
  WHERE ipversion = 4
  GROUP BY time/1 as tb, srcip, destip, srcport, destport
|}

let e2_queries = ["e2_port80cnt"; "e2_http"; "e2_ports"; "e2_subnets"; "e2_flows"]
let e2_regex = "^[^\\n]*HTTP/1.*"

(* The e2 queries whose rows make up the latency metrics: the two that
   emit a row per flow or subnet per epoch. The other three emit one or a
   dozen rows an epoch, too few for a p99, and two of them close an epoch
   late (their LFTA table holds the new epoch's only groups until the
   next flush); pooled in, their rows would make the p99 jump between the
   two populations from run to run. Their latency is reported per query
   instead. *)
let e2_latency_queries = ["e2_flows"; "e2_subnets"]

(* A pass-through selection: little reduction, many tuples on the wire. *)
let tap80_program =
  {|
  DEFINE { query_name tap80; }
  SELECT time, timestamp, srcip, destip, srcport, destport, len
  FROM eth0.tcp
  WHERE protocol = 6 and destport = 80
|}

(* ---- row text ------------------------------------------------------- *)

(* One tagged token per value: exact for floats (hex), parseable back, so
   rows received in the subscriber process compare byte for byte with
   rows delivered to in-process callbacks and with the oracle's. *)
let value_to_string = function
  | Value.Null -> "n"
  | Value.Bool b -> if b then "b1" else "b0"
  | Value.Int n -> "i" ^ string_of_int n
  | Value.Ip n -> "p" ^ string_of_int n
  | Value.Float f -> "f" ^ Printf.sprintf "%h" f
  | Value.Str s -> "s" ^ String.escaped s
  | Value.Sketch _ -> "k"

let value_of_string s =
  let body () = String.sub s 1 (String.length s - 1) in
  if s = "" then Value.Null
  else
    match s.[0] with
    | 'i' -> Value.Int (int_of_string (body ()))
    | 'p' -> Value.Ip (int_of_string (body ()))
    | 'f' -> Value.Float (float_of_string (body ()))
    | 'b' -> Value.Bool (s = "b1")
    | 's' -> Value.Str (Scanf.unescaped (body ()))
    | _ -> Value.Null

let row_to_string row = String.concat "|" (Array.to_list (Array.map value_to_string row))

let row_of_string s =
  Array.of_list (List.map value_of_string (String.split_on_char '|' s))
