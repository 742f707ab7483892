(* TCP subscribers, each in a child process of its own so that receiving
   never competes with the engine for its runtime lock. The child stamps
   every received row with CLOCK_MONOTONIC (the clock the feed's due
   times use) and keeps everything in memory until end of stream, so it
   never blocks on the pipe back to the parent mid-run. *)

module Net = Gigascope_net
module Item = Gigascope_rts.Item
module Clock = Gigascope_obs.Clock

(* Child side: [bench.exe --subscriber ADDR QUERY]. Output: one header
   line "<cpu_ns> <tuples> <gap_tuples>", then "<recv_ns> <row>" lines. *)
let child_main addr query =
  let fail e =
    prerr_endline ("subscriber " ^ query ^ ": " ^ e);
    exit 2
  in
  let addr = match Net.Addr.of_string addr with Ok a -> a | Error e -> fail e in
  let c = match Net.Client.connect addr with Ok c -> c | Error e -> fail e in
  (match Net.Client.subscribe c query with Ok _ -> () | Error e -> fail e);
  let rows = ref [] and n = ref 0 and gaps = ref 0 in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let cpu0 = cpu () in
  let rec loop () =
    match Net.Client.next c with
    | Ok (Some (Item.Tuple v)) ->
        rows := (Clock.now_ns (), v) :: !rows;
        incr n;
        loop ()
    | Ok (Some (Item.Gap k)) ->
        gaps := !gaps + max 0 k;
        loop ()
    | Ok (Some _) -> loop ()
    | Ok None -> ()
    | Error e -> fail e
  in
  loop ();
  let cpu_ns = (cpu () -. cpu0) *. 1e9 in
  Net.Client.close c;
  let buf = Buffer.create (1 lsl 20) in
  Printf.bprintf buf "%.0f %d %d\n" cpu_ns !n !gaps;
  List.iter
    (fun (t, v) -> Printf.bprintf buf "%.0f %s\n" t (Inputs.row_to_string v))
    (List.rev !rows);
  print_string (Buffer.contents buf);
  exit 0

(* Parent side. *)
type t = { query : string; pid : int; out : Unix.file_descr }

type result = {
  r_query : string;
  cpu_ns : float;
  tuples : int;
  gap_tuples : int;
  received : (float * string) list;  (** receipt ns, row text *)
}

let spawn addr query =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--subscriber"; Net.Addr.to_string addr; query |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  { query; pid; out = r }

let collect t =
  let ic = Unix.in_channel_of_descr t.out in
  let header = try input_line ic with End_of_file -> "" in
  let rec lines acc =
    match input_line ic with
    | l -> (
        match String.index_opt l ' ' with
        | Some i ->
            lines ((float_of_string (String.sub l 0 i), String.sub l (i + 1) (String.length l - i - 1)) :: acc)
        | None -> lines acc)
    | exception End_of_file -> List.rev acc
  in
  let received = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] t.pid in
  match (status, String.split_on_char ' ' header) with
  | Unix.WEXITED 0, [cpu; n; g] ->
      Ok
        {
          r_query = t.query;
          cpu_ns = float_of_string cpu;
          tuples = int_of_string n;
          gap_tuples = int_of_string g;
          received;
        }
  | _ -> Error (Printf.sprintf "subscriber for %s failed" t.query)

(* Stop a child that never got to run (set-up failed). *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close t.out with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid)
