(* Resource governor: guard tokens (deadline / tuple budget /
   cooperative cancellation) checked from the hot loops of the
   execution layer, plus a deterministic fault-injection layer used by
   the robustness tests.  See DESIGN.md §4d. *)

type reason =
  | Deadline
  | Budget of { tuples : int }
  | Cancelled

exception Interrupt of reason

let reason_to_string = function
  | Deadline -> "deadline exceeded"
  | Budget { tuples } ->
    Printf.sprintf "tuple budget exceeded (%d tuples materialised)" tuples
  | Cancelled -> "cancelled"

let () =
  Printexc.register_printer (function
    | Interrupt r -> Some ("Guard.Interrupt: " ^ reason_to_string r)
    | _ -> None)

type t = {
  deadline : float option;
      (* absolute time on the [Unix.gettimeofday] clock.  The stdlib has
         no monotonic clock; wall time is monotonic enough for
         admission-control deadlines, and a backwards clock step only
         makes the guard more lenient, never unsound. *)
  budget : int option;
  used : int Atomic.t;
  cancel_flag : bool Atomic.t;
}

let create ?deadline_in ?budget () =
  (match deadline_in with
   | Some d when d < 0.0 -> invalid_arg "Guard.create: negative deadline_in"
   | _ -> ());
  (match budget with
   | Some b when b < 0 -> invalid_arg "Guard.create: negative budget"
   | _ -> ());
  { deadline = Option.map (fun d -> Unix.gettimeofday () +. d) deadline_in;
    budget;
    used = Atomic.make 0;
    cancel_flag = Atomic.make false }

let cancel g = Atomic.set g.cancel_flag true
let cancelled g = Atomic.get g.cancel_flag
let tuples_used g = Atomic.get g.used

let check_exn g =
  if Atomic.get g.cancel_flag then raise (Interrupt Cancelled);
  (match g.deadline with
   | Some d when Unix.gettimeofday () > d -> raise (Interrupt Deadline)
   | Some _ | None -> ());
  match g.budget with
  | Some b ->
    let used = Atomic.get g.used in
    if used > b then raise (Interrupt (Budget { tuples = used }))
  | None -> ()

let check = function None -> () | Some g -> check_exn g

let charge_exn g n =
  if n <> 0 then ignore (Atomic.fetch_and_add g.used n);
  check_exn g

let charge guard n = match guard with None -> () | Some g -> charge_exn g n

(* ------------------------------------------------------------------ *)
(* environment knobs                                                   *)
(* ------------------------------------------------------------------ *)

(* One warn-once parser shared by every INCDB_* knob (INCDB_DOMAINS,
   INCDB_FAULT, INCDB_FSYNC, ...), so each unparseable value warns
   exactly once per process no matter how many times the knob is
   consulted. *)
let knob_lock = Mutex.create ()
let warned_knobs : (string, unit) Hashtbl.t = Hashtbl.create 4

let env_knob ~name ~expected ~fallback ~parse ~default () =
  match Sys.getenv_opt name with
  | None -> default ()
  | Some raw ->
    (match parse raw with
     | Some v -> v
     | None ->
       let first_time =
         Mutex.lock knob_lock;
         let fresh = not (Hashtbl.mem warned_knobs name) in
         if fresh then Hashtbl.add warned_knobs name ();
         Mutex.unlock knob_lock;
         fresh
       in
       if first_time then
         Printf.eprintf
           "incdb: ignoring unparseable %s=%S (expected %s); using %s\n%!"
           name raw expected fallback;
       default ())

(* ------------------------------------------------------------------ *)
(* fault injection                                                     *)
(* ------------------------------------------------------------------ *)

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected site -> Some ("Guard.Injected at site " ^ site)
    | _ -> None)

type fault_mode =
  | Raise
  | Delay of float  (* seconds *)

type fault = {
  site : string;
  prob : float;
  mode : fault_mode;
  rng : Random.State.t;
  rng_lock : Mutex.t;  (* sites fire from several domains at once *)
}

(* A site pattern is an exact site name, the global "*", or a prefix
   wildcard "prefix.*" (e.g. "shard.*", "wal.*").  A "*" anywhere else
   is malformed and fails the whole spec, so the env_knob path warns
   once instead of silently matching nothing. *)
let valid_site_pattern site =
  site <> ""
  && (String.equal site "*"
      || (not (String.contains site '*'))
      || (String.length site > 2
          && String.sub site (String.length site - 2) 2 = ".*"
          && not
               (String.contains
                  (String.sub site 0 (String.length site - 2))
                  '*')))

let site_matches pat site =
  String.equal pat site
  || String.equal pat "*"
  || (String.length pat >= 2
      && String.sub pat (String.length pat - 2) 2 = ".*"
      &&
      let plen = String.length pat - 1 (* keep the dot *) in
      String.length site >= plen && String.sub site 0 plen = String.sub pat 0 plen)

(* "site:prob:seed" raises [Injected site] with probability [prob];
   "site:prob:seed:delay=ms" sleeps [ms] milliseconds instead *)
let parse_fault spec =
  match String.split_on_char ':' (String.trim spec) with
  | [ site; prob; seed ] | [ site; prob; seed; "raise" ] ->
    (match (float_of_string_opt prob, int_of_string_opt seed) with
     | Some p, Some s when p >= 0.0 && p <= 1.0 && valid_site_pattern site ->
       Some
         { site; prob = p; mode = Raise;
           rng = Random.State.make [| s |]; rng_lock = Mutex.create () }
     | _ -> None)
  | [ site; prob; seed; mode ]
    when String.length mode > 6 && String.sub mode 0 6 = "delay=" ->
    let ms = String.sub mode 6 (String.length mode - 6) in
    (match
       (float_of_string_opt prob, int_of_string_opt seed,
        float_of_string_opt ms)
     with
     | Some p, Some s, Some d
       when p >= 0.0 && p <= 1.0 && d >= 0.0 && valid_site_pattern site ->
       Some
         { site; prob = p; mode = Delay (d /. 1000.0);
           rng = Random.State.make [| s |]; rng_lock = Mutex.create () }
     | _ -> None)
  | _ -> None

let parse_faults specs =
  let parts =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' specs)
  in
  let parsed = List.map parse_fault parts in
  if parts <> [] && List.for_all Option.is_some parsed then
    Some (List.map Option.get parsed)
  else None

(* [None] = not yet configured (fall back to INCDB_FAULT on first use);
   [Some faults] = explicit configuration, possibly empty *)
let config_lock = Mutex.create ()
let config : fault list option ref = ref None

let set_faults specs =
  match parse_faults specs with
  | Some faults ->
    Mutex.lock config_lock;
    config := Some faults;
    Mutex.unlock config_lock;
    true
  | None -> false

let clear_faults () =
  Mutex.lock config_lock;
  config := Some [];
  Mutex.unlock config_lock

let faults_of_env () =
  env_knob ~name:"INCDB_FAULT"
    ~expected:"site:prob:seed[:delay=ms][,...]" ~fallback:"no faults"
    ~parse:parse_faults ~default:(fun () -> []) ()

let current_faults () =
  Mutex.lock config_lock;
  let faults =
    match !config with
    | Some faults -> faults
    | None ->
      let faults = faults_of_env () in
      config := Some faults;
      faults
  in
  Mutex.unlock config_lock;
  faults

let fault_injection_active () = current_faults () <> []

let inject site =
  match current_faults () with
  | [] -> ()
  | faults ->
    List.iter
      (fun f ->
        if site_matches f.site site then begin
          Mutex.lock f.rng_lock;
          let x = Random.State.float f.rng 1.0 in
          Mutex.unlock f.rng_lock;
          if x < f.prob then
            match f.mode with
            | Raise -> raise (Injected site)
            | Delay d -> if d > 0.0 then Unix.sleepf d
        end)
      faults
