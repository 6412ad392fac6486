(* The fabric workload's process plumbing: a coordinator
   ([serve --pool 0 --tcp 127.0.0.1:0]) and one loopback remote worker
   ([worker --connect --slots 1]), each started in a private directory under
   the checkout, driven by this process as a protocol client, and killed and
   reaped on every exit path. *)

module Json = O4a_telemetry.Json
module Client = O4a_server.Client
module Protocol = O4a_server.Protocol
module Addr = O4a_server.Addr
module Jobspec = O4a_server.Jobspec

(* {1 Child processes} *)

let live : int list ref = ref []

let reap_blocking pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  live := List.filter (( <> ) pid) !live;
  status

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* private directories to remove once their processes are gone *)
let private_dirs : string list ref = ref []

(* SIGKILL and reap whatever is still running, then remove the private
   directories: the at_exit path, taken on success, on a failed check, on an
   exception and on the watchdog alarm *)
let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap_blocking pid) with Unix.Unix_error _ -> ())
    !live;
  List.iter
    (fun dir ->
      rm_rf dir;
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
    !private_dirs

let () = at_exit cleanup

let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* v=0x400: the runtime prints its allocation totals on exit *)
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ()) in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process_env prog (Array.of_list (prog :: args)) env null out out)
  in
  live := pid :: !live;
  pid

(* wait for a child that has been asked to stop; SIGKILL it after [grace] *)
let reap_within ~grace pid =
  let deadline = Measure.now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Measure.now () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap_blocking pid);
      false
    | _, status ->
      live := List.filter (( <> ) pid) !live;
      status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

(* "allocated_words: N" from a child's exit statistics *)
let allocated_words log =
  match Measure.read_file_opt log with
  | None -> 0.
  | Some text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "allocated_words"; v ] -> acc +. float_of_string (String.trim v)
        | _ -> acc)
      0.
      (String.split_on_char '\n' text)

(* {1 A coordinator + worker pair} *)

type pair = {
  dir : string;
  daemon : int;
  worker : int;
  port : int;
  started : float;
}

let fail fmt = Printf.ksprintf failwith fmt

let wait_for_file ~timeout path =
  let deadline = Measure.now () +. timeout in
  let rec go () =
    match Measure.read_file_opt path with
    | Some s when String.trim s <> "" -> String.trim s
    | _ when Measure.now () > deadline -> fail "timed out waiting for %s" path
    | _ ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let start ~cli ~dir =
  mkdir_p dir;
  let started = Measure.now () in
  (* paths stay relative to the checkout: a Unix socket path is capped at
     108 bytes, however deep the checkout lives *)
  let daemon =
    spawn ~log:(Filename.concat dir "serve.log") cli
      [
        "serve"; "--socket"; Filename.concat dir "s.sock"; "--state-dir";
        Filename.concat dir "state"; "--pool"; "0"; "--tcp"; "127.0.0.1:0";
      ]
  in
  let port =
    int_of_string
      (wait_for_file ~timeout:30. (Filename.concat dir "state/tcp.port"))
  in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let worker =
    spawn ~log:(Filename.concat dir "worker.log") cli
      [ "worker"; "--connect"; addr; "--slots"; "1"; "--connect-timeout"; "10" ]
  in
  { dir; daemon; worker; port; started }

(* a fresh connection per request: the coordinator sheds idle clients *)
let connect pair =
  match Client.connect ~timeout:10. (Addr.Tcp ("127.0.0.1", pair.port)) with
  | Error msg -> fail "cannot connect to the coordinator: %s" msg
  | Ok c -> c

(* Lease-level observations of one job, timed on receipt by this client. *)
type job_trace = {
  wall : float;  (** submit to terminal state *)
  turnaround_ms : float list;  (** lease granted -> shard merged *)
  grant_wait_ms : float list;  (** previous shard completed -> next grant *)
  grants : int;
  reassigned : int;
  report : string;
}

let str k j = Option.bind (Json.member k j) Json.to_str
let int k j = Option.bind (Json.member k j) Json.to_int

(* Submit [spec], watch it to its terminal state, return its report.txt. *)
let run_job pair (spec : Jobspec.t) =
  let t0 = Measure.now () in
  let job =
    let c = connect pair in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.request c (Protocol.Submit spec) with
        | Error msg -> fail "submit %s: %s" spec.Jobspec.name msg
        | Ok reply -> Option.value ~default:spec.Jobspec.name (str "job" reply))
  in
  let granted = Hashtbl.create 256 in
  let completed = ref [] in
  let last_completed = ref None in
  let turnaround = ref [] and waits = ref [] in
  let grants = ref 0 and reassigned = ref 0 in
  let final_state = ref "" in
  let on_line json =
    let t = Measure.now () in
    let data = Option.value ~default:Json.Null (Json.member "data" json) in
    match str "kind" json with
    | Some "lease" -> (
      let shard = Option.value ~default:(-1) (int "shard" data) in
      match str "event" data with
      | Some "lease.granted" ->
        incr grants;
        Hashtbl.replace granted shard t;
        (match !last_completed with
        | Some tc -> waits := ((t -. tc) *. 1000.) :: !waits
        | None -> ());
        true
      | Some "lease.completed" ->
        completed := shard :: !completed;
        last_completed := Some t;
        true
      | Some "lease.reassigned" ->
        incr reassigned;
        true
      | _ -> true)
    | Some "progress" ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt granted s with
          | Some tg -> turnaround := ((t -. tg) *. 1000.) :: !turnaround
          | None -> ())
        !completed;
      completed := [];
      true
    | Some "state" -> (
      match str "state" data with
      | Some ("done" | "cancelled") as s ->
        final_state := Option.get s;
        false
      | Some s when String.length s >= 6 && String.sub s 0 6 = "failed" ->
        final_state := s;
        false
      | _ -> true)
    | _ -> true
  in
  let watcher = connect pair in
  Fun.protect
    ~finally:(fun () -> Client.close watcher)
    (fun () ->
      match Client.stream watcher (Protocol.Watch { job; from = 0 }) ~on_line with
      | Error msg -> fail "watch %s: %s" job msg
      | Ok _ -> ());
  let wall = Measure.now () -. t0 in
  if !final_state <> "done" then fail "job %s ended %S" job !final_state;
  let report =
    match
      Measure.read_file_opt
        (Filename.concat (Filename.concat pair.dir "state") (job ^ "/report.txt"))
    with
    | Some r -> r
    | None -> fail "job %s left no report.txt" job
  in
  {
    wall;
    turnaround_ms = !turnaround;
    grant_wait_ms = !waits;
    grants = !grants;
    reassigned = !reassigned;
    report;
  }

type stopped = { clean : bool; daemon_alloc_words : float; worker_alloc_words : float }

(* Drain the coordinator (which drains the worker), reap both. *)
let stop pair =
  (match Client.connect ~timeout:5. (Addr.Tcp ("127.0.0.1", pair.port)) with
  | Ok c ->
    ignore (Client.request c Protocol.Shutdown);
    Client.close c
  | Error _ -> ());
  let w = reap_within ~grace:30. pair.worker in
  let d = reap_within ~grace:30. pair.daemon in
  {
    clean = w && d;
    daemon_alloc_words = allocated_words (Filename.concat pair.dir "serve.log");
    worker_alloc_words = allocated_words (Filename.concat pair.dir "worker.log");
  }

(* Set-up as a user pays it: start both processes and carry one one-tick
   job through them, so the coordinator has built the campaign, filtered
   seeds and prewarmed, and the worker has registered and built its env. *)
let ready ~cli ~dir spec =
  let pair = start ~cli ~dir in
  let probe = { spec with Jobspec.name = "probe"; budget = 1; shard_size = 1 } in
  ignore (run_job pair probe);
  (pair, Measure.now () -. pair.started)
