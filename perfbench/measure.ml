(* Measurement primitives shared by every workload: clocks, process CPU,
   allocation, resident memory, order statistics, and the host record. *)

module Json = O4a_telemetry.Json

let now = Unix.gettimeofday

(* user+sys CPU seconds of this process, every domain included *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* words allocated by this process so far: the running domain plus every
   domain that has terminated (Gc.quick_stat folds those in on join) *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let kb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1024.

(* reads to end of file: /proc files report a length of 0 *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ())

let read_file_opt path = try Some (read_file path) with Sys_error _ -> None

(* "VmHWM:  123456 kB" from /proc/<pid>/status: the peak resident set *)
let peak_rss_kb pid =
  match read_file_opt (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.
  | Some text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> float_of_string n
          | [] -> acc)
        | _ -> acc)
      0.
      (String.split_on_char '\n' text)

let self_peak_rss_mb () = peak_rss_kb "self" /. 1024.

(* Lower this process's peak-RSS mark to its current RSS (Linux
   clear_refs 5), so the next reading is the peak of what follows. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* user+sys CPU seconds of another live process, from /proc/<pid>/stat
   (fields 14 and 15, in clock ticks of 1/100 s) *)
let cpu_of_pid pid =
  match read_file_opt (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.
  | Some text -> (
    (* the command name (field 2) may hold spaces; fields resume after ')' *)
    let rest =
      let i = String.rindex text ')' in
      String.sub text (i + 2) (String.length text - i - 2)
    in
    match String.split_on_char ' ' rest with
    | _state :: fields -> (
      (* [fields] starts at field 4, so utime/stime are its 11th/12th *)
      match List.filteri (fun i _ -> i = 10 || i = 11) fields with
      | [ u; s ] -> (float_of_string u +. float_of_string s) /. 100.
      | _ -> 0.)
    | [] -> 0.)

(* {1 Order statistics} *)

let sorted xs = List.sort compare xs

(* linear interpolation between closest ranks, as numpy's default *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* {1 Host record} *)

let loadavg () =
  match read_file_opt "/proc/loadavg" with
  | None -> []
  | Some text -> (
    match String.split_on_char ' ' (String.trim text) with
    | a :: b :: c :: _ ->
      List.map (fun s -> Json.Float (float_of_string s)) [ a; b; c ]
    | _ -> [])

let nproc () = Domain.recommended_domain_count ()

let host_start = lazy (loadavg ())

let host_record () =
  Json.Obj
    [
      ("hostname", Json.String (Unix.gethostname ()));
      ("nproc", Json.Int (nproc ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("loadavg_start", Json.List (Lazy.force host_start));
      ("loadavg_end", Json.List (loadavg ()));
    ]

(* {1 Metric records} *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
         ))
       ms)
