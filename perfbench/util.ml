(* Shared helpers: clocks, order statistics, the result JSON, files under
   the run directory, and the host/config stamp every result carries. *)

let now = Unix.gettimeofday

(* user + system CPU seconds of this process, all domains (getrusage) *)
let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear interpolation between closest ranks (NumPy's default), so a
   percentile moves smoothly with its samples.  0.0 on no samples. *)
let quantile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* result JSON, written by hand                                         *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* every digit the float carries; JSON has no nan/inf *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (json_string m.name) (json_float m.value) (json_string m.unit_))
          metrics))

(* ------------------------------------------------------------------ *)
(* files: everything a run writes lives under .bench_run/ in the        *)
(* checkout                                                             *)
(* ------------------------------------------------------------------ *)

let run_root = ".bench_run"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

(* reads to end of file (proc and sys files report no length) *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun e -> write_file (Filename.concat dst e) (read_file (Filename.concat src e)))
    (Sys.readdir src)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* peak resident set (VmHWM) of a process, in MB; 0.0 if unreadable *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_file path with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* host and config stamp                                                *)
(* ------------------------------------------------------------------ *)

(* (steal, total) jiffies of all CPUs from /proc/stat: time the host
   gave this machine's CPUs to others.  On a contended virtual machine
   every figure of a run slows with it, so runs print the share. *)
let cpu_jiffies () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | text -> (
    match String.split_on_char '\n' text with
    | first :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' first) with
      | "cpu" :: fields ->
        let v = List.map (fun f -> Option.value ~default:0 (int_of_string_opt f)) fields in
        (Option.value ~default:0 (List.nth_opt v 7), List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
    | [] -> (0, 0))

let steal_share (s0, t0) (s1, t1) = ratio (s1 - s0) (t1 - t0)

(* A timed stretch (a serve sub-run, a batch round) during which the
   host gave more than this share of the CPUs' time to other machines
   measured the host, not the program: it is set aside and measured
   again.  Quiet stretches on a 2-vCPU virtual machine saw 0-5%; at
   10-15% serve_hot's read_p75 rose up to twentyfold. *)
let steal_valid = 0.10

(* [f ()] and the host's steal share while it ran *)
let with_steal f =
  let j0 = cpu_jiffies () in
  let v = f () in
  (v, steal_share j0 (cpu_jiffies ()))

let online_cpus () =
  match read_file "/sys/devices/system/cpu/online" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | s ->
    List.fold_left
      (fun acc range ->
        match String.split_on_char '-' (String.trim range) with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> acc + (b - a + 1)
          | _ -> acc)
        | [ a ] when int_of_string_opt a <> None -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' s)

(* The checkout the benchmark runs in need not be a git repository, so
   the source identity is a digest of the files that make the program. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      List.concat_map
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then files p
          else if
            List.exists (Filename.check_suffix e) [ ".ml"; ".mli" ] || e = "dune"
          then [ p ]
          else [])
        (Array.to_list entries)
  in
  let all = List.concat_map files [ "lib"; "bin" ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\000" (List.map (fun p -> p ^ Digest.file p) all)))

let git_head () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | s when String.length s > 5 && String.sub s 0 5 = "ref: " -> (
    let r = String.sub s 5 (String.length s - 5) in
    match String.trim (read_file (Filename.concat ".git" r)) with
    | exception Sys_error _ -> "unknown"
    | h -> h)
  | h -> h

let incdb_env () =
  List.filter
    (fun kv -> String.length kv > 6 && String.sub kv 0 6 = "INCDB_")
    (Array.to_list (Unix.environment ()))

let stamp fields =
  let base =
    [ ("nproc", string_of_int (online_cpus ()));
      ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("pool_backend", Incdb.Pool.backend_name (Incdb.Pool.default_backend ()));
      ("pool_size", string_of_int (Incdb.Pool.default_size ()));
      ("incdb_env", String.concat "," (incdb_env ()));
      ("source_digest", source_digest ());
      ("git_head", git_head ()) ]
  in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v))
         (base @ fields))
  ^ "}"
