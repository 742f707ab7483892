(* The correctness oracle: each workload's answer computed straight from
   the generated packets with the packet library's public accessors — a
   whole-trace group-by with no LFTA tables, channels, punctuation or
   regex engine — and a multiset comparison against what the engine
   delivered. *)

module Packet = Gigascope_packet.Packet
module Ipv4 = Gigascope_packet.Ipv4
module Value = Gigascope_rts.Value

type answer = (string, (string, int) Hashtbl.t) Hashtbl.t
(** query name -> row text -> multiplicity *)

let ports pkt =
  match (Packet.tcp_header pkt, Packet.udp_header pkt) with
  | Some h, _ -> (h.Gigascope_packet.Tcp.src_port, h.Gigascope_packet.Tcp.dst_port)
  | None, Some h -> (h.Gigascope_packet.Udp.src_port, h.Gigascope_packet.Udp.dst_port)
  | None, None -> (0, 0)

(* "HTTP/1" starting before the payload's first newline. *)
let http_first_line payload =
  let n = Bytes.length payload in
  let nl = match Bytes.index_opt payload '\n' with Some i -> i | None -> n in
  let rec at i = i + 6 <= nl && (Bytes.sub_string payload i 6 = "HTTP/1" || at (i + 1)) in
  at 0

let add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := Array.map2 ( + ) !r v
  | None -> Hashtbl.replace tbl key (ref v)

let e2 (packets : Packet.t array) ~upto : answer =
  let port80 = Hashtbl.create 64 and http = Hashtbl.create 64 in
  let by_port = Hashtbl.create 4096 and subnets = Hashtbl.create 4096 in
  let flows = Hashtbl.create 65536 in
  for i = 0 to upto - 1 do
    let pkt = packets.(i) in
    match Packet.ip_header pkt with
    | None -> ()
    | Some ip ->
        let tb = int_of_float pkt.Packet.ts in
        let sport, dport = ports pkt in
        let len = ip.Ipv4.total_len in
        if ip.Ipv4.protocol = 6 && dport = 80 then begin
          add port80 tb [| 1 |];
          if http_first_line (Packet.payload pkt) then add http tb [| 1 |]
        end;
        add by_port (tb, dport) [| 1; len |];
        add subnets (tb, ip.Ipv4.src land 0xFFFF0000) [| 1 |];
        add flows (tb, ip.Ipv4.src, ip.Ipv4.dst, sport, dport) [| 1; len |]
  done;
  let rows f tbl = Hashtbl.fold (fun k v acc -> f k !v :: acc) tbl [] in
  let i n = Value.Int n and ip n = Value.Ip n in
  let answers =
    [
      ("e2_port80cnt", rows (fun tb v -> [| i tb; i v.(0) |]) port80);
      ("e2_http", rows (fun tb v -> [| i tb; i v.(0) |]) http);
      ("e2_ports", rows (fun (tb, p) v -> [| i tb; i p; i v.(0); i v.(1) |]) by_port);
      ("e2_subnets", rows (fun (tb, s) v -> [| i tb; ip s; i v.(0) |]) subnets);
      ( "e2_flows",
        rows
          (fun (tb, s, d, sp, dp) v -> [| i tb; ip s; ip d; i sp; i dp; i v.(0); i v.(1) |])
          flows );
    ]
  in
  let out = Hashtbl.create 8 in
  List.iter
    (fun (q, rs) ->
      let ms = Hashtbl.create (List.length rs) in
      List.iter (fun r -> Hashtbl.replace ms (Inputs.row_to_string r) 1) rs;
      Hashtbl.replace out q ms)
    answers;
  out

let tap80 (packets : Packet.t array) ~upto : answer =
  let ms = Hashtbl.create 65536 in
  for i = 0 to upto - 1 do
    let pkt = packets.(i) in
    match Packet.ip_header pkt with
    | Some ip when ip.Ipv4.protocol = 6 ->
        let sport, dport = ports pkt in
        if dport = 80 then begin
          let row =
            Inputs.row_to_string
              [|
                Value.Int (int_of_float pkt.Packet.ts);
                Value.Float pkt.Packet.ts;
                Value.Ip ip.Ipv4.src;
                Value.Ip ip.Ipv4.dst;
                Value.Int sport;
                Value.Int dport;
                Value.Int ip.Ipv4.total_len;
              |]
          in
          Hashtbl.replace ms row (1 + Option.value (Hashtbl.find_opt ms row) ~default:0)
        end
    | _ -> ()
  done;
  let out = Hashtbl.create 1 in
  Hashtbl.replace out "tap80" ms;
  out

(* Rows that differ between the engine's output and the oracle's: the
   size of the multiset symmetric difference, summed over queries. *)
let wrong_rows (expected : answer) (got : (string * string list) list) =
  Hashtbl.fold
    (fun q ms acc ->
      let remaining = Hashtbl.copy ms in
      let extra = ref 0 in
      List.iter
        (fun row ->
          match Hashtbl.find_opt remaining row with
          | Some k when k > 0 -> Hashtbl.replace remaining row (k - 1)
          | _ -> incr extra)
        (Option.value (List.assoc_opt q got) ~default:[]);
      acc + !extra + Hashtbl.fold (fun _ k a -> a + k) remaining 0)
    expected 0

(* Packets that reach the e2_http regex conjunct: TCP to port 80. *)
let regex_candidates (packets : Packet.t array) =
  Array.of_list
    (Array.fold_right
       (fun pkt acc ->
         match Packet.ip_header pkt with
         | Some ip when ip.Ipv4.protocol = 6 && snd (ports pkt) = 80 ->
             Bytes.to_string (Packet.payload pkt) :: acc
         | _ -> acc)
       packets [])
