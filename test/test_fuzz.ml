(* Fuzz tests: a packet monitor is attack surface. Malformed wire bytes,
   garbage query text, and truncated captures must produce clean errors —
   never exceptions — on every path that touches untrusted input. *)

module Gsql = Gigascope_gsql
module Rts = Gigascope_rts
module P = Gigascope_packet
module Packet = P.Packet
module Prng = Gigascope_util.Prng

let qtest ?(count = 500) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------- packet decoding ------------------------------ *)

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Prng.int rng 256))

let decode_never_raises =
  qtest ~count:2000 "Packet.decode never raises on random bytes" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let b = random_bytes rng (Prng.int rng 200) in
      match Packet.decode b with Ok _ | Error _ -> true)

let decode_mutated_never_raises =
  (* nastier: start from a valid packet and flip bytes, so parsing gets
     deep before hitting the corruption *)
  qtest ~count:2000 "decode survives bit-flipped valid packets" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let pkt =
        Packet.tcp ~src:(Prng.int rng 0xffffff) ~dst:(Prng.int rng 0xffffff)
          ~src_port:(Prng.int rng 65536) ~dst_port:(Prng.int rng 65536)
          ~payload:(random_bytes rng (Prng.int rng 100))
          ()
      in
      let wire = Packet.encode pkt in
      for _ = 0 to 4 do
        let i = Prng.int rng (Bytes.length wire) in
        Bytes.set wire i (Char.chr (Prng.int rng 256))
      done;
      (* also truncate randomly *)
      let cut = Packet.truncate ~snap_len:(1 + Prng.int rng (Bytes.length wire)) wire in
      match Packet.decode cut with Ok _ | Error _ -> true)

let pcap_decode_never_raises =
  qtest ~count:1000 "Pcap.decode_file never raises on random bytes" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let b = random_bytes rng (Prng.int rng 128) in
      (* seed some with a valid magic so record parsing is reached *)
      if Bytes.length b >= 4 && Prng.bool rng then begin
        Bytes.set b 0 '\xd4';
        Bytes.set b 1 '\xc3';
        Bytes.set b 2 '\xb2';
        Bytes.set b 3 '\xa1'
      end;
      match P.Pcap.decode_file b with Ok _ | Error _ -> true)

let netflow_decode_never_raises =
  qtest ~count:1000 "Netflow.decode_datagram never raises" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let b = random_bytes rng (Prng.int rng 64) in
      if Bytes.length b >= 2 && Prng.bool rng then begin
        (* plant the version so the record loop is reached *)
        Bytes.set b 0 '\x00';
        Bytes.set b 1 '\x05'
      end;
      match P.Netflow.decode_datagram ~boot_ts:0.0 b with Ok _ | Error _ -> true)

(* --------------------------- query text --------------------------------- *)

let fresh_catalog () =
  let funcs = Rts.Func.create_registry () in
  Rts.Builtin_funcs.register_all funcs;
  let catalog = Gsql.Catalog.create funcs in
  Gigascope.Default_protocols.register catalog;
  catalog

let gsql_vocabulary =
  [|
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "MERGE"; "DEFINE"; "PROTOCOL";
    "and"; "or"; "not"; "as"; "count(*)"; "sum"; "avg"; "("; ")"; "{"; "}"; ","; ";"; ":";
    "."; "="; "<>"; "<"; ">"; "+"; "-"; "*"; "/"; "&"; "time"; "destport"; "srcip";
    "payload"; "eth0"; "tcp"; "udp"; "q1"; "80"; "0.5"; "'str'"; "$p"; "10.0.0.1"; "|";
  |]

let compiler_never_raises_on_token_soup =
  qtest ~count:2000 "compiler returns Error (never raises) on token soup" QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 25 in
      let text =
        String.concat " "
          (List.init n (fun _ -> gsql_vocabulary.(Prng.int rng (Array.length gsql_vocabulary))))
      in
      let catalog = fresh_catalog () in
      match Gsql.Compile.compile_program catalog text with Ok _ | Error _ -> true)

let compiler_never_raises_on_random_chars =
  qtest ~count:2000 "compiler survives random character strings" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 80 in
      (* printable-ish ASCII with the occasional control char *)
      let text =
        String.init n (fun _ ->
            if Prng.int rng 20 = 0 then Char.chr (Prng.int rng 32)
            else Char.chr (32 + Prng.int rng 95))
      in
      let catalog = fresh_catalog () in
      match Gsql.Compile.compile_program catalog text with Ok _ | Error _ -> true)

let regex_compile_never_raises_unexpectedly =
  qtest ~count:2000 "regex compiler raises only Syntax_error" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 30 in
      let alphabet = "ab()[]{}*+?|\\^$.-019,nxt" in
      let pattern =
        String.init n (fun _ -> alphabet.[Prng.int rng (String.length alphabet)])
      in
      match Gigascope_regex.Regex.compile pattern with
      | _ -> true
      | exception Gigascope_regex.Regex.Syntax_error _ -> true)

(* running a fuzzed-but-valid pattern must stay linear and not raise *)
let regex_match_never_raises =
  qtest ~count:500 "compiled regexes never raise while matching" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let alphabet = "ab()[]*+?|^$." in
      let pattern =
        String.init (Prng.int rng 15) (fun _ -> alphabet.[Prng.int rng (String.length alphabet)])
      in
      match Gigascope_regex.Regex.compile_opt pattern with
      | None -> true
      | Some rx ->
          let input = String.init (Prng.int rng 60) (fun _ -> if Prng.bool rng then 'a' else 'b') in
          let (_ : bool) = Gigascope_regex.Regex.matches rx input in
          true)

(* -------------------------- prefix tables ------------------------------- *)

let lpm_table_never_raises =
  qtest ~count:1000 "prefix-table parser never raises" QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let line () =
        match Prng.int rng 5 with
        | 0 -> "10.0.0.0/8 7018"
        | 1 -> Printf.sprintf "%d.%d.0.0/%d %d" (Prng.int rng 300) (Prng.int rng 300) (Prng.int rng 40) (Prng.int rng 100000)
        | 2 -> "# comment"
        | 3 -> String.init (Prng.int rng 20) (fun _ -> Char.chr (33 + Prng.int rng 90))
        | _ -> ""
      in
      let text = String.concat "\n" (List.init (Prng.int rng 10) (fun _ -> line ())) in
      match Gigascope_lpm.Table.load_string text with Ok _ | Error _ -> true)

(* ------------------- cross-domain channel -------------------------------- *)

(* The SPSC contract under real concurrency: a producer domain pushing with
   random stalls (sometimes closing mid-stream), a consumer domain popping
   with random stalls (so EOF regularly lands before the queue drains).
   Whatever the interleaving: the consumer sees exactly the accepted
   tuples, in push order; acceptance is a prefix when the channel closes
   mid-stream; and the metrics add up. *)
let xchannel_fuzz =
  qtest ~count:150 "Xchannel: order, prefix-on-close, metric consistency" QCheck.small_int
    (fun seed ->
      let rng = Prng.create ((seed * 7) + 1) in
      let capacity = 1 + Prng.int rng 8 in
      let n = 20 + Prng.int rng 300 in
      let close_at = if Prng.int rng 3 = 0 then Some (Prng.int rng n) else None in
      let xc = Rts.Xchannel.create ~capacity ~name:"fuzz" () in
      let stall prng =
        if Prng.int prng 10 = 0 then
          for _ = 1 to 50 do
            ignore (Sys.opaque_identity prng)
          done
      in
      let consumer =
        Domain.spawn (fun () ->
            let crng = Prng.create (seed lxor 0x5ca1ab1e) in
            let acc = ref [] in
            let continue = ref true in
            while !continue do
              (match Rts.Xchannel.pop xc with
              | Some (Rts.Item.Tuple [| Rts.Value.Int v |]) -> acc := v :: !acc
              | Some Rts.Item.Eof -> continue := false
              | Some _ -> ()
              | None ->
                  if Rts.Xchannel.is_closed xc && Rts.Xchannel.is_empty xc then
                    continue := false
                  else Domain.cpu_relax ());
              stall crng
            done;
            List.rev !acc)
      in
      for i = 0 to n - 1 do
        (match close_at with Some c when c = i -> Rts.Xchannel.close xc | _ -> ());
        ignore (Rts.Xchannel.push xc (Rts.Item.Tuple [| Rts.Value.Int i |]));
        stall rng
      done;
      ignore (Rts.Xchannel.push xc Rts.Item.Eof);
      (* EOF is dropped silently on a closed channel; close again so a
         consumer still draining observes termination either way *)
      Rts.Xchannel.close xc;
      let got = Domain.join consumer in
      let accepted = match close_at with Some c -> c | None -> n in
      got = List.init accepted (fun i -> i)
      && Rts.Xchannel.tuples_in xc = accepted
      && Rts.Xchannel.drops xc = n - accepted
      && Rts.Xchannel.high_water xc <= capacity
      && Rts.Xchannel.blocked_ns xc >= 0)

(* ---------------------- batched data plane ------------------------------ *)

(* Differential fuzz over the data-plane batch size: the knob is pure
   plumbing, so for every workload in the determinism matrix the
   subscriber output must be byte-identical — same rows, same order — at
   every batch size. The sizes cross the interesting thresholds: 2 (the
   smallest real batch), 7 (never divides a quantum evenly, so every step
   ends in a flushed partial batch), 64 (the default quantum, one batch
   per step), and 4096 (larger than any default quantum or channel
   capacity ratio, so the quantum floor and the cross-channel capacity
   clamp both engage). *)
let batch_differential =
  List.map
    (fun (w : Workloads.workload) ->
      Alcotest.test_case w.Workloads.wname `Slow (fun () ->
          let seed = 23 in
          let baseline, _ = Workloads.exec w ~seed ~parallel:1 ~batch:1 () in
          List.iter
            (fun batch ->
              let got, _ = Workloads.exec w ~seed ~parallel:1 ~batch () in
              Workloads.assert_same
                ~label:(Printf.sprintf "%s batch=%d" w.Workloads.wname batch)
                baseline got)
            [2; 7; 64; 4096];
          (* and batched across a domain boundary: one cross-channel push
             per batch must not reorder or lose anything either *)
          let par, _ = Workloads.exec w ~seed ~parallel:2 ~batch:64 () in
          Workloads.assert_same
            ~label:(Printf.sprintf "%s domains=2 batch=64" w.Workloads.wname)
            baseline par))
    Workloads.workloads

(* ---------------------- sharded execution ------------------------------- *)

(* The shard-count differential law, as a property over random plans:
   for a randomly generated aggregation or selection query, a randomly
   chosen shard count (2..5) and batch size must leave the subscriber
   output byte-identical to the unsharded tuple-at-a-time run. This is
   the same claim test_shard.ml pins on the curated workloads, extended
   to query shapes nobody hand-picked. *)
let run_shard_query ~shards ~batch ~gseed query =
  let engine = Gigascope.Engine.create ~shards () in
  Gigascope.Engine.add_generator_interface engine ~name:"eth0"
    { Gigascope_traffic.Gen.default with rate_mbps = 20.0; duration = 0.4; seed = gseed };
  match Gigascope.Engine.install_query engine ~name:"q" query with
  | Error e -> failwith ("install: " ^ e)
  | Ok _ ->
      let rows = ref [] in
      Result.get_ok
        (Gigascope.Engine.on_tuple engine "q" (fun t ->
             rows :=
               String.concat "," (List.map Rts.Value.to_string (Array.to_list t))
               :: !rows));
      (match Gigascope.Engine.run engine ~batch () with
      | Ok _ -> ()
      | Error e -> failwith ("run: " ^ e));
      List.rev !rows

let shard_count_differential =
  qtest ~count:12 "random plan × random shard count: output byte-identical"
    QCheck.small_int (fun seed ->
      let rng = Prng.create ((seed * 7919) + 5) in
      let pick l = List.nth l (Prng.int rng (List.length l)) in
      let sel_keys, group_by =
        pick
          [
            ("tb", "time/1 as tb");
            ("tb, destport", "time/1 as tb, destport");
            ("tb, subnet", "time/1 as tb, truncate_ip(srcip, 16) as subnet");
            ("tb, srcip, destport", "time/1 as tb, srcip, destport");
          ]
      in
      let aggs =
        pick
          [
            "count(*) as c";
            "count(*) as c, sum(len) as s";
            "min(len) as lo, max(len) as hi";
            "sum(len) as s, avg(len) as a";
          ]
      in
      let where = pick [ ""; "WHERE ipversion = 4"; "WHERE len > 100" ] in
      let query =
        if Prng.int rng 4 = 0 then
          Printf.sprintf "SELECT time, srcip, destip, len FROM eth0.ip %s" where
        else
          Printf.sprintf "SELECT %s, %s FROM eth0.tcp %s GROUP BY %s" sel_keys aggs where
            group_by
      in
      let gseed = 1 + Prng.int rng 1000 in
      let shards = 2 + Prng.int rng 4 in
      let batch = pick [ 1; 7; 64 ] in
      let baseline = run_shard_query ~shards:1 ~batch:1 ~gseed query in
      let got = run_shard_query ~shards ~batch ~gseed query in
      if baseline <> got then
        QCheck.Test.fail_reportf "divergence: %s (shards=%d batch=%d seed=%d)" query
          shards batch gseed
      else true)

(* Reunification-merge reorder fuzz: adversarially skewed inputs — one
   far ahead, one dribbling, random punctuation — through a bare
   Merge_op with a forwarded monotone field. The merge's two ordering
   properties must hold however the inputs interleave: emitted tuples
   globally sorted on the merge attribute (and an exact multiset of the
   inputs), and every published punctuation bound firm — no later tuple
   undershoots it, on the merge field or the forwarded one. *)
let merge_reorder_fuzz =
  qtest ~count:300 "merge under adversarial skew: sorted, conserved, firm bounds"
    QCheck.small_int (fun seed ->
      let rng = Prng.create (seed + 411) in
      let n_inputs = 2 + Prng.int rng 3 in
      let mk i =
        (* input i starts at a skewed offset and advances at its own rate *)
        let ts = ref (Prng.int rng ((20 * i) + 1)) in
        let n = 5 + Prng.int rng 40 in
        List.init n (fun j ->
            ts := !ts + Prng.int rng (1 + (5 * (i + 1)));
            if Prng.int rng 6 = 0 then Rts.Item.Punct [ (0, Rts.Value.Int !ts) ]
            else Rts.Item.Tuple [| Rts.Value.Int !ts; Rts.Value.Int i; Rts.Value.Int j |])
      in
      let inputs = Array.init n_inputs mk in
      let merge =
        Rts.Merge_op.make
          ~forward:[ (2, Rts.Order_prop.Asc) ]
          { Rts.Merge_op.n_inputs; ordered_idx = 0; direction = Rts.Order_prop.Asc }
      in
      let op = Rts.Merge_op.op merge in
      let out = ref [] in
      let emit i = out := i :: !out in
      let queues = Array.map (fun l -> ref l) inputs in
      let rec drive () =
        let live =
          List.filter (fun i -> !(queues.(i)) <> []) (List.init n_inputs Fun.id)
        in
        match live with
        | [] -> ()
        | _ ->
            let i = List.nth live (Prng.int rng (List.length live)) in
            (match !(queues.(i)) with
            | it :: rest ->
                queues.(i) := rest;
                op.Rts.Operator.on_item ~input:i it ~emit
            | [] -> ());
            drive ()
      in
      drive ();
      for i = 0 to n_inputs - 1 do
        op.Rts.Operator.on_item ~input:i Rts.Item.Eof ~emit
      done;
      let emitted = List.rev !out in
      let tuple_key = function
        | Rts.Item.Tuple [| Rts.Value.Int a; Rts.Value.Int b; Rts.Value.Int c |] ->
            Some (a, b, c)
        | _ -> None
      in
      let sent =
        List.sort compare
          (List.concat_map (fun l -> List.filter_map tuple_key l)
             (Array.to_list inputs))
      in
      let got_tuples = List.filter_map tuple_key emitted in
      let sorted =
        let rec go = function
          | (a, _, _) :: ((b, _, _) :: _ as rest) -> a <= b && go rest
          | _ -> true
        in
        go got_tuples
      in
      let conserved = List.sort compare got_tuples = sent in
      (* firm bounds: once a punct publishes a field bound, no later
         tuple may undershoot it *)
      let firm =
        let lo = Array.make 3 min_int in
        List.for_all
          (function
            | Rts.Item.Punct fields ->
                List.iter
                  (fun (idx, v) ->
                    match v with
                    | Rts.Value.Int b when idx < 3 -> lo.(idx) <- max lo.(idx) b
                    | _ -> ())
                  fields;
                true
            | Rts.Item.Tuple [| Rts.Value.Int a; _; Rts.Value.Int c |] ->
                a >= lo.(0) && c >= lo.(2)
            | _ -> true)
          emitted
      in
      if not (sorted && conserved && firm) then
        QCheck.Test.fail_reportf "inputs=%d sorted=%b conserved=%b firm=%b" n_inputs
          sorted conserved firm
      else true)

(* --------------------------- certifier algebra -------------------------- *)

(* Random aggregation plans over the certifier, checking the laws the
   engine's admission and auto-sizing rest on:

   - finiteness is a property of the logical plan, not the physical
     rewrite: a plan with an epoch key certifies finite and one without
     certifies unbounded, at every LFTA table size (the LFTA/HFTA split
     moves state around but cannot create or destroy a bound);
   - sharding is monotone: each replica of a sharded chain carries a
     bound no larger than the whole unsharded query's, and sharding
     never flips the finiteness verdict. *)

let certify_laws =
  let module Certify = Gsql.Certify in
  let module Split = Gsql.Split in
  qtest ~count:200 "certifier: split-invariant finiteness, shard-monotone bounds"
    QCheck.small_int (fun seed ->
      let rng = Prng.create ((seed * 7919) + 13) in
      let epoch = Prng.bool rng in
      let bucket = [| 1; 10; 60 |].(Prng.int rng 3) in
      let extra =
        [| []; [ "srcip" ]; [ "destport" ]; [ "srcip"; "destport" ] |].(Prng.int rng 4)
      in
      let aggs =
        [| "count(*) as c"; "count(*) as c, sum(len) as b"; "sum(len) as b" |].(Prng.int rng 3)
      in
      let keys =
        (if epoch then [ Printf.sprintf "time/%d as tb" bucket ] else [])
        @ List.map (fun k -> k ^ " as k_" ^ k) extra
      in
      let keys = if keys = [] then [ "srcip as k_srcip" ] else keys in
      let select_keys = String.concat ", " (List.map (fun k -> List.nth (String.split_on_char ' ' k) 2) keys) in
      let text =
        Printf.sprintf "DEFINE { query_name fz; } SELECT %s, %s FROM eth0.tcp GROUP BY %s"
          select_keys aggs (String.concat ", " keys)
      in
      let compile ~bits =
        (* fresh catalog per compile: compiling registers the query's
           output schema, and a re-registration would be a false failure *)
        let catalog = Gigascope.Engine.catalog (Gigascope.Engine.create ()) in
        match Gsql.Compile.compile_program catalog ~lfta_table_bits:bits text with
        | Error e -> QCheck.Test.fail_reportf "compile %S: %s" text e
        | Ok [ c ] -> c.Gsql.Compile.split
        | Ok _ -> QCheck.Test.fail_reportf "expected one compiled query for %S" text
      in
      let expect_finite = epoch in
      (* law 1: finiteness across LFTA table sizes (different physical
         splits of the same logical plan) *)
      let splits = List.map (fun bits -> (bits, compile ~bits)) [ 6; 12 ] in
      List.iter
        (fun (bits, s) ->
          let cert = Certify.certify s in
          if Certify.finite cert <> expect_finite then
            QCheck.Test.fail_reportf "bits=%d: finite=%b, epoch=%b for %S" bits
              (Certify.finite cert) epoch text)
        splits;
      (* law 2: sharding preserves the verdict and each replica's bound
         stays within the unsharded query bound *)
      let base = List.assoc 12 splits in
      let base_cert = Certify.certify base in
      let shards = 2 + Prng.int rng 3 in
      (match Split.shard ~shards base with
      | Error _ -> () (* unshardable plans install unchanged *)
      | Ok (sharded, _info) ->
          let sh_cert = Certify.certify sharded in
          if Certify.finite sh_cert <> Certify.finite base_cert then
            QCheck.Test.fail_reportf "shards=%d flipped finiteness for %S" shards text;
          match Certify.total_estimate base_cert with
          | None -> ()
          | Some total ->
              List.iter
                (fun (p : Split.phys_node) ->
                  match p.Split.pshard with
                  | None -> ()
                  | Some _ -> (
                      match Certify.node_bound sh_cert p.Split.pname with
                      | None ->
                          QCheck.Test.fail_reportf "replica %s of %S lost its bound"
                            p.Split.pname text
                      | Some b ->
                          if b > total +. 1e-9 then
                            QCheck.Test.fail_reportf
                              "replica %s bound %.0f > unsharded query bound %.0f for %S"
                              p.Split.pname b total text))
                sharded.Split.phys);
      true)

(* full path: fuzzed pcap bytes through the engine *)
let engine_survives_fuzzed_pcap =
  qtest ~count:50 "engine runs over a capture of mutated packets" QCheck.small_int (fun seed ->
      let rng = Prng.create (seed + 99) in
      let packets =
        List.init 50 (fun i ->
            let pkt =
              Packet.tcp ~ts:(float_of_int i /. 50.0)
                ~src:(Prng.int rng 0xffffff) ~dst:(Prng.int rng 0xffffff)
                ~src_port:(Prng.int rng 65536) ~dst_port:(Prng.int rng 65536)
                ~payload:(random_bytes rng (Prng.int rng 64))
                ()
            in
            let wire = Packet.encode pkt in
            if Prng.int rng 3 = 0 then begin
              let j = Prng.int rng (Bytes.length wire) in
              Bytes.set wire j (Char.chr (Prng.int rng 256))
            end;
            (float_of_int i /. 50.0, wire))
      in
      (* decode what survives, as a capture interface would *)
      let decoded =
        List.filter_map
          (fun (ts, wire) -> Result.to_option (Packet.decode ~ts wire))
          packets
      in
      let engine = Gigascope.Engine.create () in
      Gigascope.Engine.add_packet_list_interface engine ~name:"eth0" decoded;
      match
        Gigascope.Engine.install_query engine ~name:"q"
          "SELECT tb, count(*) as c FROM eth0.tcp GROUP BY time/1 as tb"
      with
      | Error _ -> false
      | Ok _ -> ( match Gigascope.Engine.run engine () with Ok _ -> true | Error _ -> false))

(* ---------------------- typed ≡ generic compilation ------------------- *)

(* Codegen compiles predicates and aggregate keys over unboxed ints, and
   falls back to the generic closure whenever it cannot decide. The law:
   on every tuple the typed predicate's verdict is the generic value's
   truthiness (false for no value), and the typed key is the generic
   value itself — same constructor, so an Ip field stays Ip. Tuples carry
   the declared type, Null or a wrong-typed value in every field, and
   expressions mix Int/Ip, divide and take remainders by zero, shift,
   read a field past the tuple's end, an unset parameter, and a partial
   function whose result may be Bool. *)
module Ir = Gsql.Expr_ir
module Ast = Gsql.Ast

let typed_fields = [| Rts.Ty.Int; Rts.Ty.Ip; Rts.Ty.Int; Rts.Ty.Float; Rts.Ty.Bool; Rts.Ty.Int |]

let gen_field_value rng ty =
  match Prng.int rng 8 with
  | 0 -> Rts.Value.Null
  | 1 -> Rts.Value.Float (float_of_int (Prng.int rng 7 - 3))
  | 2 -> Rts.Value.Str "x"
  | 3 -> Rts.Value.Bool (Prng.bool rng)
  | _ -> (
      let small = Prng.int rng 9 - 4 in
      match ty with
      | Rts.Ty.Int -> Rts.Value.Int small
      | Rts.Ty.Ip -> Rts.Value.Ip (abs small)
      | Rts.Ty.Float -> Rts.Value.Float (float_of_int small /. 2.0)
      | Rts.Ty.Bool -> Rts.Value.Bool (small > 0)
      | Rts.Ty.Str | Rts.Ty.Sketch -> Rts.Value.Str "y")

let half_fn =
  Rts.Func.pure ~name:"half" ~arg_tys:[ Rts.Ty.Int ] ~ret_ty:Rts.Ty.Int ~partial:true (fun args ->
      match args.(0) with
      | Rts.Value.Int x when x mod 2 = 0 -> Some (Rts.Value.Int (x / 2))
      | Rts.Value.Int x when x > 0 -> Some (Rts.Value.Bool true)
      | _ -> None)

let arith_ops = [| Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band; Ast.Bor; Ast.Shl; Ast.Shr |]
let cmp_ops = [| Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |]
let pick rng a = a.(Prng.int rng (Array.length a))

let rec gen_int_expr rng depth : Ir.t =
  if depth <= 0 || Prng.int rng 3 = 0 then
    match Prng.int rng 10 with
    | 0 | 1 | 2 ->
        let i = Prng.int rng (Array.length typed_fields) in
        Ir.Field (i, typed_fields.(i))
    | 3 -> Ir.Field (7, Rts.Ty.Int) (* past the end of every tuple *)
    | 4 -> Ir.Const (Rts.Value.Int (Prng.int rng 5 - 2))
    | 5 -> Ir.Const (Rts.Value.Ip (Prng.int rng 4))
    | 6 -> Ir.Param ((if Prng.bool rng then "p" else "unset"), Rts.Ty.Int)
    | 7 -> Ir.Const (Rts.Value.Int 0)
    | 8 -> Ir.Const (pick rng [| Rts.Value.Null; Rts.Value.Float 1.0; Rts.Value.Str "s" |])
    | _ -> Ir.Call (half_fn, [ gen_int_expr rng (depth - 1) ])
  else if Prng.int rng 6 = 0 then Ir.Unop (Ast.Neg, gen_int_expr rng (depth - 1))
  else
    Ir.Binop (pick rng arith_ops, gen_int_expr rng (depth - 1), gen_int_expr rng (depth - 1), Rts.Ty.Int)

let rec gen_bool_expr rng depth : Ir.t =
  if depth <= 0 || Prng.int rng 4 = 0 then
    match Prng.int rng 8 with
    | 0 -> Ir.Field (4, Rts.Ty.Bool)
    | 1 -> Ir.Field (Prng.int rng 3, Rts.Ty.Int) (* non-bool truthiness *)
    | 2 -> Ir.Const (Rts.Value.Bool (Prng.bool rng))
    | 3 -> Ir.Call (half_fn, [ gen_int_expr rng 1 ])
    | _ ->
        Ir.Binop (pick rng cmp_ops, gen_int_expr rng 2, gen_int_expr rng 2, Rts.Ty.Bool)
  else
    match Prng.int rng 3 with
    | 0 -> Ir.Binop (Ast.And, gen_bool_expr rng (depth - 1), gen_bool_expr rng (depth - 1), Rts.Ty.Bool)
    | 1 -> Ir.Binop (Ast.Or, gen_bool_expr rng (depth - 1), gen_bool_expr rng (depth - 1), Rts.Ty.Bool)
    | _ -> Ir.Unop (Ast.Not, gen_bool_expr rng (depth - 1))

let typed_compile_law =
  qtest ~count:1000 "typed predicates and keys ≡ generic compile_expr" QCheck.small_int
    (fun seed ->
      let rng = Prng.create (seed + 1) in
      let params : Gsql.Codegen.params = Hashtbl.create 1 in
      Hashtbl.replace params "p"
        (pick rng [| Rts.Value.Int 0; Rts.Value.Int 3; Rts.Value.Ip 2; Rts.Value.Null |]);
      let pred = gen_bool_expr rng 4 and key = gen_int_expr rng 3 in
      let ok = function Ok f -> f | Error e -> QCheck.Test.fail_reportf "compile: %s" e in
      let typed_pred = ok (Gsql.Codegen.compile_pred ~params pred) in
      let generic_pred = ok (Gsql.Codegen.compile_expr ~params pred) in
      let typed_key = ok (Gsql.Codegen.compile_key ~params key) in
      let generic_key = ok (Gsql.Codegen.compile_expr ~params key) in
      let show = function None -> "none" | Some v -> Rts.Value.to_string v in
      for _ = 1 to 40 do
        let tup = Array.map (gen_field_value rng) typed_fields in
        let want = match generic_pred tup with Some v -> Rts.Value.is_truthy v | None -> false in
        if typed_pred tup <> want then
          QCheck.Test.fail_reportf "predicate %s on [%s]: typed %b, generic %b" (Ir.to_string pred)
            (String.concat "; " (Array.to_list (Array.map Rts.Value.to_string tup)))
            (not want) want;
        let got = typed_key tup and exp = generic_key tup in
        (* constructor-exact: Int 1 and Float 1.0 are Value.equal but
           different keys on the wire *)
        if Stdlib.compare got exp <> 0 then
          QCheck.Test.fail_reportf "key %s on [%s]: typed %s, generic %s" (Ir.to_string key)
            (String.concat "; " (Array.to_list (Array.map Rts.Value.to_string tup)))
            (show got) (show exp)
      done;
      true)

(* ---------------------- punctuation is firm ----------------------------- *)

(* Punctuation law: a bound is a promise. Every node's emitted item
   sequence is watched; once a node has punctuated column f with bound
   b, no later tuple from it may lie strictly behind b in the column's
   declared direction. LFTAs punctuate their own epoch advances, so this
   covers every split aggregation's LFTA→HFTA edge as well as source
   clocks, merges and HFTAs, over every differential workload at the
   per-item and default batch sizes, on one domain. A periodic source heartbeat
   makes every workload punctuate. The single-interface workloads' own
   traffic spans one epoch, so they also run over three seconds of it,
   which makes their LFTAs advance epochs. *)
let punct_law =
  List.map
    (fun (w : Workloads.workload) ->
      let multi_epoch =
        if List.mem w.Workloads.wname [ "http_fraction"; "subnet_volume"; "syn_flood"; "tcpdest" ]
        then [ (Workloads.eth0_setup ~rate:10.0 ~duration:3.0, 5, 64) ]
        else []
      in
      Alcotest.test_case w.Workloads.wname `Slow (fun () ->
          List.iter
            (fun (setup, seed, batch) ->
              let engine = Gigascope.Engine.create () in
              setup ~seed engine;
              (match Gigascope.Engine.install_program engine ~params:w.Workloads.params (w.Workloads.program ()) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%s: install: %s" w.Workloads.wname e);
              let mgr = Gigascope.Engine.manager engine in
              let puncts = ref 0 in
              List.iter
                (fun node ->
                  let name = Rts.Node.name node in
                  let schema = Rts.Node.schema node in
                  let bounds = Hashtbl.create 4 in
                  Result.get_ok
                    (Rts.Manager.on_item mgr name (function
                      | Rts.Item.Punct bs ->
                          incr puncts;
                          List.iter (fun (f, b) -> Hashtbl.replace bounds f b) bs
                      | Rts.Item.Tuple t ->
                          Hashtbl.iter
                            (fun f b ->
                              match Rts.Order_prop.direction_of (Rts.Schema.field_at schema f).Rts.Schema.order with
                              | Some dir when Rts.Order_prop.ahead dir b t.(f) ->
                                  Alcotest.failf "%s seed %d batch %d: %s emitted %s = %s behind its bound %s"
                                    w.Workloads.wname seed batch name
                                    (Rts.Schema.field_at schema f).Rts.Schema.name
                                    (Rts.Value.to_string t.(f)) (Rts.Value.to_string b)
                              | _ -> ())
                            bounds
                      | _ -> ())))
                (Rts.Manager.nodes mgr);
              (match Gigascope.Engine.run engine ~parallel:1 ~batch ~heartbeat_period:5 () with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%s: run: %s" w.Workloads.wname e);
              if !puncts = 0 then Alcotest.failf "%s: no punctuation observed" w.Workloads.wname)
            ([ (w.Workloads.setup, 3, 1); (w.Workloads.setup, 17, 64) ] @ multi_epoch)))
    Workloads.workloads

let () =
  Alcotest.run "fuzz"
    [
      ( "packets",
        [
          decode_never_raises;
          decode_mutated_never_raises;
          pcap_decode_never_raises;
          netflow_decode_never_raises;
        ] );
      ( "queries",
        [compiler_never_raises_on_token_soup; compiler_never_raises_on_random_chars] );
      ("regex", [regex_compile_never_raises_unexpectedly; regex_match_never_raises]);
      ("tables", [lpm_table_never_raises]);
      ("xchannel", [xchannel_fuzz]);
      ("batch-differential", batch_differential);
      ("punct-law", punct_law);
      ("shard-differential", [shard_count_differential; merge_reorder_fuzz]);
      ("certifier", [certify_laws]);
      ("typed-compile", [typed_compile_law]);
      ("end-to-end", [engine_survives_fuzzed_pcap]);
    ]
