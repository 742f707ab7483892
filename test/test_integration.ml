(* End-to-end integration tests: GSQL text compiled, installed, and run
   through the engine over crafted packet lists, with exact expected
   results. These exercise the whole stack at once — interpretation,
   LFTA/HFTA split, punctuation, heartbeats, UDFs with handles, query
   parameters, composition, merge, join, sampling, pcap replay. *)

module E = Gigascope.Engine
module Rts = Gigascope_rts
module Gsql = Gigascope_gsql
module Value = Rts.Value
module Packet = Gigascope_packet.Packet
module Tcp = Gigascope_packet.Tcp
module Ipaddr = Gigascope_packet.Ipaddr

let check = Alcotest.check

let ip = Ipaddr.of_string

(* crafted packets: ts, src, dst, sport, dport, payload *)
let tcp_pkt ts src dst sport dport payload =
  Packet.tcp ~ts ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport
    ~payload:(Bytes.of_string payload) ()

let udp_pkt ts src dst sport dport payload =
  Packet.udp ~ts ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport
    ~payload:(Bytes.of_string payload) ()

let collect engine name =
  let rows = ref [] in
  Result.get_ok (E.on_tuple engine name (fun t -> rows := Array.copy t :: !rows));
  fun () -> List.rev !rows

let run engine = match E.run engine () with Ok s -> s | Error e -> Alcotest.fail e

let install engine ?params text =
  match E.install_program engine ?params text with
  | Ok insts -> insts
  | Error e -> Alcotest.fail e

let row_to_string row =
  String.concat "," (List.map Value.to_string (Array.to_list row))

let check_rows name expected got =
  check Alcotest.(list string) name expected (List.map row_to_string got)

(* ------------------------- exact selection ------------------------------ *)

let test_selection_exact () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1111 80 "a";
      tcp_pkt 2.0 "10.0.0.3" "10.0.0.4" 2222 443 "b";
      udp_pkt 3.0 "10.0.0.5" "10.0.0.6" 3333 80 "c";
      tcp_pkt 4.0 "10.0.0.7" "10.0.0.8" 4444 80 "d";
    ];
  ignore
    (install engine
       {| DEFINE { query_name web; }
          SELECT time, srcip FROM eth0.tcp WHERE protocol = 6 and destport = 80 |});
  let got = collect engine "web" in
  ignore (run engine);
  check_rows "only tcp port-80 rows" ["1,10.0.0.1"; "4,10.0.0.7"] (got ())

(* --------------------- split aggregation, exact ------------------------- *)

let test_aggregation_exact () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.5 "10.0.0.1" "10.0.0.2" 1 80 "xx";    (* tb 0 *)
      tcp_pkt 0.9 "10.0.0.1" "10.0.0.2" 1 80 "yyy";   (* tb 0 *)
      tcp_pkt 1.2 "10.0.0.1" "10.0.0.2" 1 443 "zzzz"; (* tb 1, port 443 *)
      tcp_pkt 1.7 "10.0.0.1" "10.0.0.2" 1 80 "w";     (* tb 1 *)
      tcp_pkt 2.3 "10.0.0.1" "10.0.0.2" 1 80 "v";     (* tb 2 *)
    ];
  ignore
    (install engine
       {| DEFINE { query_name perport; }
          SELECT tb, destport, count(*) as cnt, sum(data_length) as bytes
          FROM eth0.tcp WHERE protocol = 6
          GROUP BY time/1 as tb, destport |});
  let got = collect engine "perport" in
  ignore (run engine);
  (* the split LFTA/HFTA pipeline must produce exactly the offline answer *)
  check_rows "grouped counts and sums"
    ["0,80,2,5"; "1,80,1,1"; "1,443,1,4"; "2,80,1,1"]
    (List.sort compare (got ()))

let test_avg_split_exact () =
  (* avg is the aggregate that truly tests sub/super splitting: the LFTA
     emits (sum, count) partials; the HFTA recombines with fdiv *)
  (* the two-node split shape is the unsharded plan's *)
  let engine = E.create ~shards:1 () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "aa";      (* len 2 *)
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 80 "bbbb";    (* len 4 *)
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 80 "cccccc";  (* len 6 *)
    ];
  let insts =
    install engine
      {| DEFINE { query_name avgq; }
         SELECT tb, avg(data_length) as alen
         FROM eth0.tcp WHERE protocol = 6
         GROUP BY time/1 as tb |}
  in
  (* confirm the query really did split *)
  let inst = List.hd insts in
  check Alcotest.bool "query was split into LFTA+HFTA" true
    (List.length inst.Gsql.Codegen.node_names = 2);
  let got = collect engine "avgq" in
  ignore (run engine);
  match got () with
  | [[| Value.Int 0; Value.Float a |]] -> check (Alcotest.float 1e-9) "avg = 4.0" 4.0 a
  | rows -> Alcotest.failf "unexpected rows: %s" (String.concat ";" (List.map row_to_string rows))

let test_having_exact () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "9.9.9.9" 1 80 "";
      tcp_pkt 0.2 "10.0.0.2" "9.9.9.9" 1 80 "";
      tcp_pkt 0.3 "10.0.0.3" "8.8.8.8" 1 80 "";
    ];
  ignore
    (install engine
       {| DEFINE { query_name busy; }
          SELECT tb, destip, count(*) as c FROM eth0.tcp
          GROUP BY time/1 as tb, destip
          HAVING count(*) >= 2 |});
  let got = collect engine "busy" in
  ignore (run engine);
  check_rows "having keeps only the busy destination" ["0,9.9.9.9,2"] (got ())

(* ------------------------- query composition ---------------------------- *)

let test_composition () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "aaaa";
      tcp_pkt 0.4 "10.0.0.1" "10.0.0.2" 1 22 "bb";
      tcp_pkt 0.7 "10.0.0.1" "10.0.0.2" 1 80 "c";
    ];
  ignore
    (install engine
       {|
       DEFINE { query_name base; }
       SELECT time, destport, data_length FROM eth0.tcp WHERE protocol = 6

       DEFINE { query_name weblen; }
       SELECT time, data_length FROM base WHERE destport = 80

       DEFINE { query_name total; }
       SELECT tb, sum(data_length) as s FROM weblen GROUP BY time/1 as tb
     |});
  let got = collect engine "total" in
  ignore (run engine);
  check_rows "three-deep composition" ["0,5"] (got ())

(* ---------------------------- parameters -------------------------------- *)

let test_query_parameters () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "";
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 443 "";
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 8080 "";
    ];
  ignore
    (install engine
       ~params:[("watch_port", Value.Int 443)]
       {| DEFINE { query_name watched; }
          SELECT time, destport FROM eth0.tcp WHERE protocol = 6 and destport = $watch_port |});
  let got = collect engine "watched" in
  ignore (run engine);
  check_rows "parameter bound at instantiation" ["0,443"] (got ())

let test_missing_parameter_discards () =
  (* an unset parameter means the predicate can never hold *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" [tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 ""];
  ignore
    (install engine
       {| DEFINE { query_name unset; }
          SELECT time FROM eth0.tcp WHERE destport = $never_set |});
  let got = collect engine "unset" in
  ignore (run engine);
  check Alcotest.int "no tuples" 0 (List.length (got ()))

(* ------------------------ UDFs and handles ------------------------------ *)

let test_getlpmid_partial_function () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.1.0.9" 1 80 "";  (* matches 10/8 -> id 7018 *)
      tcp_pkt 0.2 "10.0.0.1" "11.0.0.9" 1 80 "";  (* matches 11/8 -> id 701 *)
      tcp_pkt 0.3 "10.0.0.1" "12.0.0.9" 1 80 "";  (* no prefix: discarded *)
    ];
  let table = Filename.temp_file "peers" ".tbl" in
  let oc = open_out table in
  output_string oc "10.0.0.0/8 7018\n11.0.0.0/8 701\n";
  close_out oc;
  ignore
    (install engine
       (Printf.sprintf
          {| DEFINE { query_name peers; }
             SELECT peer, count(*) as c FROM eth0.tcp
             GROUP BY time/10 as tb, getlpmid(destip, '%s') as peer |}
          table));
  let got = collect engine "peers" in
  ignore (run engine);
  Sys.remove table;
  check_rows "per-peer counts; unmatched discarded" ["7018,1"; "701,1"]
    (List.sort (fun a b -> compare b a) (got ()))

let test_regex_udf_split_pipeline () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "GET / HTTP/1.1\r\n";
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 80 "\nbinary tunnel junk";
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 80 "HTTP/1.0 200 OK";
    ];
  ignore
    (install engine
       {| DEFINE { query_name http; }
          SELECT time FROM eth0.tcp
          WHERE protocol = 6 and destport = 80
            and str_match_regex(payload, '^[^\n]*HTTP/1.*') = TRUE |});
  let got = collect engine "http" in
  ignore (run engine);
  check_rows "regex filters through the split pipeline" ["0"; "0"] (got ())

let test_custom_function_registration () =
  let engine = E.create () in
  (* a user function: port class, as the paper's analysts would add *)
  E.register_function engine
    (Rts.Func.pure ~name:"port_class" ~arg_tys:[Rts.Ty.Int] ~ret_ty:Rts.Ty.Str (fun args ->
         match args.(0) with
         | Value.Int p when p < 1024 -> Some (Value.Str "well-known")
         | Value.Int _ -> Some (Value.Str "ephemeral")
         | _ -> None));
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 ""; tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 5000 ""];
  ignore
    (install engine
       {| DEFINE { query_name classes; }
          SELECT time, port_class(destport) as cls FROM eth0.tcp WHERE protocol = 6 |});
  let got = collect engine "classes" in
  ignore (run engine);
  check_rows "user function applied" ["0,\"well-known\""; "0,\"ephemeral\""] (got ())

(* ------------------------------ merge ----------------------------------- *)

let test_merge_exact_order () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 ""; tcp_pkt 3.0 "10.0.0.1" "10.0.0.2" 1 80 ""];
  E.add_packet_list_interface engine ~name:"eth1"
    [tcp_pkt 2.0 "10.0.0.3" "10.0.0.4" 1 80 ""; tcp_pkt 4.0 "10.0.0.3" "10.0.0.4" 1 80 ""];
  ignore
    (install engine
       {|
       DEFINE { query_name a; } SELECT timestamp, srcip FROM eth0.tcp
       DEFINE { query_name b; } SELECT timestamp, srcip FROM eth1.tcp
       DEFINE { query_name m; } MERGE x.timestamp : y.timestamp FROM a x, b y
     |});
  let got = collect engine "m" in
  ignore (run engine);
  check_rows "globally time-ordered union"
    ["1,10.0.0.1"; "2,10.0.0.3"; "3,10.0.0.1"; "4,10.0.0.3"]
    (got ())

(* ------------------------------- join ----------------------------------- *)

let test_join_exact () =
  let engine = E.create () in
  (* dns queries on eth0, responses on eth1; join on time window + ip *)
  E.add_packet_list_interface engine ~name:"eth0"
    [
      udp_pkt 1.0 "10.0.0.1" "8.8.8.8" 5353 53 "q1";
      udp_pkt 5.0 "10.0.0.2" "8.8.8.8" 5354 53 "q2";
    ];
  E.add_packet_list_interface engine ~name:"eth1"
    [
      udp_pkt 1.5 "8.8.8.8" "10.0.0.1" 53 5353 "r1"; (* within 1s of q1 *)
      udp_pkt 9.0 "8.8.8.8" "10.0.0.2" 53 5354 "r2"; (* too late for q2 *)
    ];
  ignore
    (install engine
       {|
       DEFINE { query_name queries; }
       SELECT time, srcip, srcport FROM eth0.udp WHERE destport = 53

       DEFINE { query_name answers; }
       SELECT time, destip, destport FROM eth1.udp WHERE srcport = 53

       DEFINE { query_name paired; }
       SELECT q.time, q.srcip
       FROM queries q, answers a
       WHERE q.time >= a.time - 2 and q.time <= a.time + 2
         and q.srcip = a.destip and q.srcport = a.destport
     |});
  let got = collect engine "paired" in
  ignore (run engine);
  check_rows "only the in-window pair joins" ["1,10.0.0.1"] (got ())

(* ------------------------------ sampling -------------------------------- *)

let test_sampling () =
  let engine = E.create () in
  let packets = List.init 1000 (fun i -> tcp_pkt (float_of_int i /. 1000.0) "10.0.0.1" "10.0.0.2" 1 80 "") in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  ignore
    (install engine
       {| DEFINE { query_name sampled; }
          SELECT time FROM eth0.tcp WHERE protocol = 6 SAMPLE 0.2 |});
  let got = collect engine "sampled" in
  ignore (run engine);
  let n = List.length (got ()) in
  check Alcotest.bool (Printf.sprintf "~20%% sampled (got %d)" n) true (n > 120 && n < 280)

(* ----------------------------- pcap replay ------------------------------ *)

let test_pcap_interface_end_to_end () =
  let path = Filename.temp_file "gs_e2e" ".pcap" in
  let w = Gigascope_packet.Pcap.open_writer path in
  Gigascope_packet.Pcap.write_packet w (tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 "hello");
  Gigascope_packet.Pcap.write_packet w (tcp_pkt 2.0 "10.0.0.1" "10.0.0.2" 1 22 "ssh");
  Gigascope_packet.Pcap.close_writer w;
  let engine = E.create () in
  (match E.add_pcap_interface engine ~name:"eth0" path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore
    (install engine
       {| DEFINE { query_name from_pcap; }
          SELECT time, destport, data_length FROM eth0.tcp WHERE destport = 80 |});
  let got = collect engine "from_pcap" in
  ignore (run engine);
  Sys.remove path;
  check_rows "replayed capture queried" ["1,80,5"] (got ())

(* ------------------------- NIC data reduction --------------------------- *)

let test_nic_filter_reduces_delivery () =
  let mk capability =
    let engine = E.create () in
    E.add_packet_list_interface engine ~name:"eth0" ~capability
      (List.init 100 (fun i ->
           tcp_pkt (float_of_int i /. 100.0) "10.0.0.1" "10.0.0.2" 1
             (if i mod 10 = 0 then 80 else 443)
             "ppp"));
    ignore
      (install engine
         {| DEFINE { query_name web80; }
            SELECT time, destport FROM eth0.tcp WHERE protocol = 6 and destport = 80 |});
    let got = collect engine "web80" in
    ignore (run engine);
    (engine, List.length (got ()))
  in
  let eng_dumb, n_dumb = mk E.Cap_none in
  let eng_bpf, n_bpf = mk E.Cap_bpf in
  check Alcotest.int "same query answer regardless of NIC" n_dumb n_bpf;
  let stats_of eng =
    match E.nic_of eng "eth0" with
    | Some nic -> (Gigascope_nic.Nic.stats nic).Gigascope_nic.Nic.packets_delivered
    | None -> Alcotest.fail "nic missing"
  in
  check Alcotest.int "dumb card delivers everything" 100 (stats_of eng_dumb);
  check Alcotest.int "filtering card delivers only matches" 10 (stats_of eng_bpf)

(* A Dumb card counts every packet whole. It does so from
   [Packet.encoded_len], not by encoding: the counters must equal the
   encoded bytes exactly — also for a non-IP frame and for a packet
   decoded from a snapped capture, whose [wire_len] is the snapped
   length while its encoding restores the full datagram. *)
let test_dumb_nic_accounting () =
  let snapped =
    let full = Packet.encode (tcp_pkt 0.4 "10.0.0.5" "10.0.0.6" 7 80 (String.make 300 'z')) in
    match Packet.decode ~ts:0.4 (Packet.truncate ~snap_len:64 full) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let non_ip =
    {
      Packet.ts = 0.3;
      wire_len = 54;
      eth =
        {
          Gigascope_packet.Ethernet.dst = Packet.default_mac_dst;
          src = Packet.default_mac_src;
          ethertype = Gigascope_packet.Ethernet.ethertype_arp;
        };
      net = Packet.Non_ip (Bytes.make 40 'a');
    }
  in
  let packets =
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "hello";
      udp_pkt 0.2 "10.0.0.3" "10.0.0.4" 53 53 "query";
      non_ip;
      snapped;
      tcp_pkt 0.5 "10.0.0.1" "10.0.0.2" 1 443 "";
    ]
  in
  check Alcotest.bool "snapped wire_len differs from encoded length" true
    (snapped.Packet.wire_len <> Bytes.length (Packet.encode snapped));
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  ignore
    (install engine {| DEFINE { query_name tcp_any; } SELECT time FROM eth0.tcp WHERE protocol = 6 |});
  let got = collect engine "tcp_any" in
  ignore (run engine);
  check Alcotest.int "tcp rows" 3 (List.length (got ()));
  let bytes = List.fold_left (fun n p -> n + Bytes.length (Packet.encode p)) 0 packets in
  List.iter
    (fun p ->
      check Alcotest.int "encoded_len = encoded bytes" (Bytes.length (Packet.encode p))
        (Packet.encoded_len p))
    packets;
  match E.nic_of engine "eth0" with
  | None -> Alcotest.fail "nic missing"
  | Some nic ->
      let s = Gigascope_nic.Nic.stats nic in
      check Alcotest.int "packets seen" 5 s.Gigascope_nic.Nic.packets_seen;
      check Alcotest.int "packets delivered" 5 s.Gigascope_nic.Nic.packets_delivered;
      check Alcotest.int "bytes seen" bytes s.Gigascope_nic.Nic.bytes_seen;
      check Alcotest.int "bytes delivered" bytes s.Gigascope_nic.Nic.bytes_delivered

(* An explicit --batch wins over GIGASCOPE_BATCH and the default of 64:
   --batch 1 must really run tuple-at-a-time. *)
let test_cli_explicit_batch () =
  (* the build tree's layout: test/ sits next to bin/ and queries/ *)
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let gsq = Filename.concat root (Filename.concat "bin" "gsq.exe") in
  let query = Filename.concat root (Filename.concat "queries" "tcpdest.gsql") in
  let batch_line n =
    let out = Filename.temp_file "gsq_batch" ".out" in
    let cmd =
      Printf.sprintf "%s run %s --rate 20 --duration 1 --max-rows 0 --batch %d --trace > %s 2>&1"
        (Filename.quote gsq) (Filename.quote query) n (Filename.quote out)
    in
    let code = Sys.command cmd in
    let text = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    if code <> 0 then Alcotest.failf "%s exited %d:\n%s" cmd code text;
    List.find_opt
      (fun l -> String.starts_with ~prefix:"rts.scheduler.batch" l)
      (String.split_on_char '\n' text)
  in
  check Alcotest.(option string) "--batch 1" (Some "rts.scheduler.batch 1") (batch_line 1);
  check Alcotest.(option string) "--batch 7" (Some "rts.scheduler.batch 7") (batch_line 7)

(* ------------------------ LFTA batch via engine ------------------------- *)

let test_lfta_after_start_rejected () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0" [tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 ""];
  ignore
    (install engine
       {| DEFINE { query_name first; } SELECT time FROM eth0.tcp |});
  ignore (run engine);
  (* a new protocol query needs a new LFTA: must be refused after start *)
  (match
     E.install_query engine ~name:"late" "SELECT time, destport FROM eth0.tcp WHERE destport = 80"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "new LFTA accepted after the RTS started");
  (* but a new HFTA over an existing stream is fine *)
  match E.install_query engine ~name:"late_hfta" "SELECT time FROM first" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("HFTA after start rejected: " ^ e)

(* ------------------------- heartbeat end-to-end ------------------------- *)

let test_heartbeats_bound_merge_buffer () =
  (* same setup as bench a3 but through the public API: fast + slow custom
     sources, MERGE in GSQL, measure the merge operator's high water *)
  let schema =
    Rts.Schema.make
      [
        { Rts.Schema.name = "ts"; ty = Rts.Ty.Int; order = Rts.Order_prop.Monotone Rts.Order_prop.Asc };
      ]
  in
  let run_one ~heartbeats =
    let engine = E.create ~default_capacity:200_000 () in
    let fast_i = ref 0 in
    Result.get_ok
      (E.add_custom_source engine ~name:"fast" ~schema
         ~pull:(fun () ->
           if !fast_i >= 50_000 then None
           else begin
             let v = !fast_i in
             incr fast_i;
             Some (Rts.Item.Tuple [| Value.Int v |])
           end)
         ~clock:(fun () -> [(0, Value.Int !fast_i)]));
    let slow_sent = ref false in
    Result.get_ok
      (E.add_custom_source engine ~name:"slow" ~schema
         ~pull:(fun () ->
           if not !slow_sent then begin
             slow_sent := true;
             Some (Rts.Item.Tuple [| Value.Int 0 |])
           end
           else if !fast_i >= 50_000 then None
           else Some Rts.Item.Flush)
         ~clock:(fun () -> [(0, Value.Int !fast_i)]));
    let insts =
      install engine {| DEFINE { query_name m; } MERGE a.ts : b.ts FROM fast a, slow b |}
    in
    (match E.run engine ~heartbeats () with Ok _ -> () | Error e -> Alcotest.fail e);
    match (List.hd insts).Gsql.Codegen.merges with
    | [(_, merge)] -> Rts.Merge_op.high_water merge
    | _ -> Alcotest.fail "expected one merge operator"
  in
  let hw_on = run_one ~heartbeats:true in
  let hw_off = run_one ~heartbeats:false in
  check Alcotest.bool
    (Printf.sprintf "heartbeats bound the buffer (on=%d, off=%d)" hw_on hw_off)
    true
    (hw_on * 10 < hw_off)

let test_multiple_instances_different_params () =
  (* "The RTS can execute multiple instances of the same LFTA, each with
     different parameters" (Section 3) *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      tcp_pkt 0.1 "10.0.0.1" "10.0.0.2" 1 80 "";
      tcp_pkt 0.2 "10.0.0.1" "10.0.0.2" 1 443 "";
      tcp_pkt 0.3 "10.0.0.1" "10.0.0.2" 1 80 "";
    ];
  let text name =
    Printf.sprintf
      {| DEFINE { query_name %s; }
         SELECT time FROM eth0.tcp WHERE protocol = 6 and destport = $port |}
      name
  in
  ignore (install engine ~params:[("port", Value.Int 80)] (text "watch80"));
  ignore (install engine ~params:[("port", Value.Int 443)] (text "watch443"));
  let got80 = collect engine "watch80" and got443 = collect engine "watch443" in
  ignore (run engine);
  check Alcotest.int "instance 1 sees its port" 2 (List.length (got80 ()));
  check Alcotest.int "instance 2 sees its port" 1 (List.length (got443 ()))

(* ------------------- protocol-level merge and join ---------------------- *)

let test_merge_directly_over_protocols () =
  (* MERGE straight over two Protocol sources: the splitter inserts an
     identity-projection LFTA per interface *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 ""; tcp_pkt 3.0 "10.0.0.1" "10.0.0.2" 1 80 ""];
  E.add_packet_list_interface engine ~name:"eth1"
    [tcp_pkt 2.0 "10.0.0.3" "10.0.0.4" 1 80 ""; tcp_pkt 4.0 "10.0.0.3" "10.0.0.4" 1 80 ""];
  let insts =
    install engine
      {| DEFINE { query_name direct_merge; }
         MERGE a.timestamp : b.timestamp FROM eth0.tcp a, eth1.tcp b |}
  in
  let inst = List.hd insts in
  check Alcotest.int "two feeders + merge" 3 (List.length inst.Gsql.Codegen.node_names);
  let got = collect engine "direct_merge" in
  ignore (run engine);
  let stamps =
    List.filter_map
      (fun t -> match t.(1) with Value.Float f -> Some f | _ -> None)
      (got ())
  in
  check Alcotest.(list (float 1e-9)) "ordered union of both links" [1.0; 2.0; 3.0; 4.0] stamps

let test_join_directly_over_protocols () =
  (* join over two Protocol sources with a side predicate: the conjunct
     referencing only one side is pushed into that side's feeder LFTA *)
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [
      udp_pkt 1.0 "10.0.0.1" "8.8.8.8" 1111 53 "q";
      udp_pkt 2.0 "10.0.0.2" "8.8.8.8" 2222 99 "not-dns";
    ];
  E.add_packet_list_interface engine ~name:"eth1"
    [
      udp_pkt 1.2 "8.8.8.8" "10.0.0.1" 53 1111 "r";
      udp_pkt 2.1 "8.8.8.8" "10.0.0.2" 99 2222 "r2";
    ];
  let insts =
    install engine
      {| DEFINE { query_name direct_join; }
         SELECT q.time, q.srcip
         FROM eth0.udp q, eth1.udp r
         WHERE q.time >= r.time - 1 and q.time <= r.time + 1
           and q.destport = 53 and q.srcip = r.destip |}
  in
  let inst = List.hd insts in
  check Alcotest.int "two feeders + join" 3 (List.length inst.Gsql.Codegen.node_names);
  let got = collect engine "direct_join" in
  ignore (run engine);
  check_rows "side predicate pushed down, window respected" ["1,10.0.0.1"] (got ())

(* ---------------------- live-application features ----------------------- *)

let test_live_parameter_change () =
  (* "query parameters ... can be changed on-the-fly" (Section 3): flip the
     watched port mid-run via the scheduler's round hook *)
  let engine = E.create () in
  let packets =
    List.init 2000 (fun i ->
        tcp_pkt (float_of_int i /. 1000.0) "10.0.0.1" "10.0.0.2" 1
          (if i mod 2 = 0 then 80 else 443)
          "")
  in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  let insts =
    install engine
      {| DEFINE { query_name live; }
         SELECT time, destport FROM eth0.tcp WHERE destport = $p |}
  in
  let inst = List.hd insts in
  Gsql.Codegen.set_param inst "p" (Value.Int 80);
  let seen80 = ref 0 and seen443 = ref 0 in
  Result.get_ok
    (E.on_tuple engine "live" (fun t ->
         match t.(1) with
         | Value.Int 80 -> incr seen80
         | Value.Int 443 -> incr seen443
         | _ -> ()));
  let flipped = ref false in
  (match
     (* the hook runs on domain 0, so the run keeps to one domain *)
     E.run engine ~quantum:16 ~parallel:1
       ~on_round:(fun round ->
         if round = 20 && not !flipped then begin
           flipped := true;
           Gsql.Codegen.set_param inst "p" (Value.Int 443)
         end)
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "matched port 80 before the flip" true (!seen80 > 0);
  check Alcotest.bool "matched port 443 after the flip" true (!seen443 > 0);
  check Alcotest.bool "neither saw everything" true (!seen80 < 1000 && !seen443 < 1000)

let test_flush_mid_stream () =
  (* aggregation with no ordered group key: output only arrives when the
     analyst flushes the query (Section 2.2: "the user can obtain output by
     flushing the query") *)
  let engine = E.create () in
  let packets =
    List.init 100 (fun i -> tcp_pkt (float_of_int i) "10.0.0.1" "10.0.0.2" 1 80 "x")
  in
  E.add_packet_list_interface engine ~name:"eth0" packets;
  ignore
    (install engine
       {| DEFINE { query_name unkeyed; }
          SELECT destport, count(*) as c FROM eth0.tcp GROUP BY destport |});
  let flushes_seen = ref [] in
  Result.get_ok
    (E.on_tuple engine "unkeyed" (fun t ->
         match t.(1) with Value.Int c -> flushes_seen := c :: !flushes_seen | _ -> ()));
  (match
     (* the hook runs on domain 0, so the run keeps to one domain *)
     E.run engine ~quantum:8 ~parallel:1
       ~on_round:(fun round ->
         if round = 5 then Result.get_ok (E.flush engine "unkeyed"))
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* one partial emission from the flush, one final from EOF, summing to
     the full count *)
  match List.rev !flushes_seen with
  | [partial; rest] ->
      check Alcotest.bool "partial before eof" true (partial > 0 && partial < 100);
      check Alcotest.int "everything accounted for" 100 (partial + rest)
  | other -> Alcotest.failf "expected two emissions, got %d" (List.length other)

let test_stats_report () =
  let engine = E.create () in
  E.add_packet_list_interface engine ~name:"eth0"
    [tcp_pkt 1.0 "10.0.0.1" "10.0.0.2" 1 80 ""];
  ignore (install engine {| DEFINE { query_name sr; } SELECT time FROM eth0.tcp |});
  ignore (run engine);
  let report = E.stats_report engine in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions the source" true (contains report "eth0.tcp");
  check Alcotest.bool "mentions the query" true (contains report "sr");
  check Alcotest.bool "kinds listed" true (contains report "lfta")

let test_three_way_merge () =
  let engine = E.create () in
  let mk name ts_list =
    E.add_packet_list_interface engine ~name
      (List.map (fun ts -> tcp_pkt ts "10.0.0.1" "10.0.0.2" 1 80 "") ts_list)
  in
  mk "e0" [1.0; 4.0];
  mk "e1" [2.0; 5.0];
  mk "e2" [3.0; 6.0];
  ignore
    (install engine
       {|
       DEFINE { query_name s0; } SELECT timestamp FROM e0.tcp
       DEFINE { query_name s1; } SELECT timestamp FROM e1.tcp
       DEFINE { query_name s2; } SELECT timestamp FROM e2.tcp
       DEFINE { query_name m3; } MERGE a.timestamp : b.timestamp : c.timestamp
       FROM s0 a, s1 b, s2 c
     |});
  let got = collect engine "m3" in
  ignore (run engine);
  check_rows "three-way merge in order" ["1"; "2"; "3"; "4"; "5"; "6"] (got ())


(* ----------------------- round-level close latency ---------------------- *)

(* A feed that counts the packets it has handed out and notes when it
   reports end of input; a callback reading the counter learns how far
   the source had pulled when a row reached it. *)
let counting_feed packets =
  let arr = Array.of_list packets in
  let handed = ref 0 and eof = ref false in
  let feed () =
    let i = ref 0 in
    fun () ->
      if !i < Array.length arr then begin
        incr handed;
        incr i;
        Some arr.(!i - 1)
      end
      else begin
        eof := true;
        None
      end
  in
  (feed, handed, eof)

(* An LFTA's epoch flush is larger than the scheduler quantum. Operators
   drain their inputs before the source pulls again, and the LFTA
   punctuates its epoch advance, so the HFTA closes epoch 0 within the
   round that pulls epoch 1's first packet: no more than one quantum
   after it. Both tests keep the LFTA->HFTA hop on domain 0, whatever
   GIGASCOPE_PARALLEL says: across a worker domain, how far the source
   runs ahead of an HFTA is up to the OS scheduler. The first test also
   runs on two domains with the HFTA pinned to domain 0 (and sharding
   off, so no replica leaves it): domain 0 drains like a one-domain
   run. *)
let test_epoch_closes_within_round () =
  let n0 = 600 and n1 = 200 in
  let src i = Printf.sprintf "10.%d.%d.1" (i / 200) (i mod 200) in
  let packets =
    List.init n0 (fun i -> tcp_pkt (0.5 +. (float_of_int i /. 4000.)) (src i) "10.9.9.9" 1 80 "")
    @ List.init n1 (fun i -> tcp_pkt (1.5 +. (float_of_int i /. 4000.)) (src i) "10.9.9.9" 1 80 "")
  in
  List.iter
    (fun (label, shards, parallel, placement) ->
      let feed, handed, _ = counting_feed packets in
      let engine = E.create ?shards () in
      E.add_interface engine ~name:"eth0" ~feed ();
      ignore
        (install engine
           {| DEFINE { query_name persrc; }
              SELECT tb, srcip, count(*) as c FROM eth0.tcp GROUP BY time/1 as tb, srcip |});
      let epoch0 = ref 0 and last_epoch0_at = ref 0 in
      Result.get_ok
        (E.on_tuple engine "persrc" (fun t ->
             if t.(0) = Value.Int 0 then begin
               incr epoch0;
               last_epoch0_at := !handed
             end));
      (match E.run engine ~parallel ?placement () with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (label ^ ": " ^ e));
      check Alcotest.int (label ^ ": every epoch-0 group delivered") n0 !epoch0;
      let limit = n0 + Rts.Scheduler.default_quantum in
      if !last_epoch0_at > limit then
        Alcotest.failf "%s: last epoch-0 row arrived after %d packets were handed out (limit %d)"
          label !last_epoch0_at limit)
    [
      ("one domain", None, 1, None);
      ("two domains, HFTA on domain 0", Some 1, 2, Some [ ("persrc", 0) ]);
    ]

(* One group per epoch, as e2_port80cnt: the LFTA table holds epoch 1's
   only group until end of input, so without the LFTA's epoch
   punctuation the HFTA would close epoch 0 at EOF. *)
let test_single_group_epoch_closes_before_eof () =
  let packets =
    List.init 300 (fun i ->
        tcp_pkt (float_of_int i /. 150.) "10.0.0.1" "10.0.0.2" 1 80 "")
  in
  let feed, _, eof = counting_feed packets in
  let engine = E.create () in
  E.add_interface engine ~name:"eth0" ~feed ();
  ignore
    (install engine
       {| DEFINE { query_name p80; }
          SELECT tb, count(*) as cnt FROM eth0.tcp WHERE destport = 80
          GROUP BY time/1 as tb |});
  let before_eof = ref [] in
  Result.get_ok
    (E.on_tuple engine "p80" (fun t -> before_eof := (row_to_string t, not !eof) :: !before_eof));
  (match E.run engine ~parallel:1 () with Ok _ -> () | Error e -> Alcotest.fail e);
  check
    Alcotest.(list (pair string bool))
    "epoch 0 closes before end of input"
    [ ("0,150", true); ("1,150", false) ]
    (List.rev !before_eof)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "exact selection" `Quick test_selection_exact;
          Alcotest.test_case "exact aggregation (split)" `Quick test_aggregation_exact;
          Alcotest.test_case "avg sub/super split" `Quick test_avg_split_exact;
          Alcotest.test_case "having" `Quick test_having_exact;
          Alcotest.test_case "composition" `Quick test_composition;
          Alcotest.test_case "query parameters" `Quick test_query_parameters;
          Alcotest.test_case "missing parameter" `Quick test_missing_parameter_discards;
          Alcotest.test_case "getlpmid partial fn" `Quick test_getlpmid_partial_function;
          Alcotest.test_case "regex UDF split" `Quick test_regex_udf_split_pipeline;
          Alcotest.test_case "custom function" `Quick test_custom_function_registration;
          Alcotest.test_case "merge exact order" `Quick test_merge_exact_order;
          Alcotest.test_case "join exact" `Quick test_join_exact;
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "pcap replay" `Quick test_pcap_interface_end_to_end;
          Alcotest.test_case "NIC data reduction" `Quick test_nic_filter_reduces_delivery;
          Alcotest.test_case "dumb NIC accounting" `Quick test_dumb_nic_accounting;
          Alcotest.test_case "CLI explicit --batch" `Quick test_cli_explicit_batch;
          Alcotest.test_case "LFTA batch restriction" `Quick test_lfta_after_start_rejected;
          Alcotest.test_case "heartbeats bound merge" `Quick test_heartbeats_bound_merge_buffer;
          Alcotest.test_case "live parameter change" `Quick test_live_parameter_change;
          Alcotest.test_case "flush mid-stream" `Quick test_flush_mid_stream;
          Alcotest.test_case "stats report" `Quick test_stats_report;
          Alcotest.test_case "three-way merge" `Quick test_three_way_merge;
          Alcotest.test_case "merge over protocols" `Quick test_merge_directly_over_protocols;
          Alcotest.test_case "join over protocols" `Quick test_join_directly_over_protocols;
          Alcotest.test_case "multi-instance params" `Quick test_multiple_instances_different_params;
          Alcotest.test_case "epoch closes within a round" `Quick test_epoch_closes_within_round;
          Alcotest.test_case "one-group epoch closes before eof" `Quick
            test_single_group_epoch_closes_before_eof;
        ] );
    ]
