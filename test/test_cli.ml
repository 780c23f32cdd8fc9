(* End-to-end tests for the `incdb serve` subcommand: spawn the real
   binary, pipe SQL in (stdin mode) or drive it over TCP (--listen),
   and assert outcome lines, the counters summary, exit codes, and the
   SIGTERM drain path. *)

(* resolve relative to this test binary so both `dune runtest` (cwd =
   stanza dir) and `dune exec` (cwd = project root) find it *)
let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "main.exe"))

let read_all_fd fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* waitpid with a deadline so a wedged child fails the test instead of
   hanging the suite *)
let wait_exit ?(timeout = 30.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "child did not exit before the deadline"
      end
      else begin
        Unix.sleepf 0.02;
        go ()
      end
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Alcotest.fail (Printf.sprintf "child killed by signal %d" s)
  in
  go ()

(* cloexec: the child must not inherit the parent's pipe ends, or its
   stdin never sees EOF (create_process dup2s the passed fds onto
   0/1/2, which clears the flag on those) *)
let spawn ?(env = []) args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  (* getenv returns the first match, so an entry we mean as an override
     must replace any inherited binding of the same variable (the CI
     fault legs export INCDB_FAULT to the whole suite) *)
  let overridden e =
    List.exists
      (fun o ->
        match String.index_opt o '=' with
        | None -> false
        | Some i ->
          let k = String.sub o 0 (i + 1) in
          String.length e >= String.length k
          && String.sub e 0 (String.length k) = k)
      env
  in
  let inherited =
    List.filter
      (fun e -> not (overridden e))
      (Array.to_list (Unix.environment ()))
  in
  let full_env = Array.of_list (env @ inherited) in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      full_env in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  (pid, in_w, out_r)

let write_stdin fd s =
  ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s));
  Unix.close fd

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* stdin mode                                                          *)
(* ------------------------------------------------------------------ *)

let test_stdin_ok () =
  let pid, stdin_w, stdout_r =
    spawn [ "serve"; "--null-rate"; "1"; "--workers"; "2" ]
  in
  write_stdin stdin_w
    "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)\n\
     this is not sql\n\
     SELECT title FROM Orders\n";
  let out = read_all_fd stdout_r in
  Unix.close stdout_r;
  let code = wait_exit pid in
  Alcotest.(check int) "clean exit" 0 code;
  Alcotest.(check bool) ("[1] ok line in: " ^ out) true
    (contains "[1] ok (" out);
  Alcotest.(check bool) "[2] parse error line" true
    (contains "[2] parse error:" out);
  Alcotest.(check bool) "[3] ok line" true (contains "[3] ok (3 tuples)" out);
  Alcotest.(check bool) "counters summary" true
    (contains "-- admitted 2, completed 2" out)

(* a query that resolves Failed (a persistent injected fault with no
   retries) must flip the exit code *)
let test_stdin_failed_exit () =
  let pid, stdin_w, stdout_r =
    spawn
      ~env:[ "INCDB_FAULT=world.chunk:1.0:7" ]
      [ "serve"; "--null-rate"; "1"; "--retries"; "0" ]
  in
  write_stdin stdin_w
    "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)\n";
  let out = read_all_fd stdout_r in
  Unix.close stdout_r;
  let code = wait_exit pid in
  Alcotest.(check bool) ("failed line in: " ^ out) true
    (contains "[1] failed:" out);
  Alcotest.(check int) "non-zero exit when a query failed" 1 code

(* ------------------------------------------------------------------ *)
(* network mode                                                        *)
(* ------------------------------------------------------------------ *)

(* read one '\n'-terminated line from an fd *)
let read_line_fd fd =
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* kill and reap [pid] if it is still running; a child some check
   already reaped (or killed on purpose) is left alone *)
let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* [with_listen args f] starts `incdb serve --listen ...`, reads the
   port off its banner and runs [f pid stdout_r port].  However [f]
   ends, a failed check included, a server still running is killed and
   reaped: it inherits the suite's stderr, so a server left behind
   would hold the test run open instead of letting it report *)
let with_listen ?(null_rate = "1") args f =
  let pid, stdin_w, stdout_r =
    spawn ([ "serve"; "--null-rate"; null_rate ] @ args)
  in
  Unix.close stdin_w;
  Fun.protect ~finally:(fun () -> reap pid) @@ fun () ->
  let banner = read_line_fd stdout_r in
  let port =
    match String.rindex_opt banner ':' with
    | Some i ->
      (match
         int_of_string_opt
           (String.sub banner (i + 1) (String.length banner - i - 1))
       with
       | Some p -> p
       | None -> Alcotest.fail ("unparsable banner: " ^ banner))
    | None -> Alcotest.fail ("unparsable banner: " ^ banner)
  in
  Alcotest.(check bool) "banner announces the port" true
    (contains "listening on 127.0.0.1:" banner);
  f pid stdout_r port

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let send_fd fd s = ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))

let test_listen_roundtrip () =
  with_listen [ "--listen"; "127.0.0.1:0" ] @@ fun pid stdout_r port ->
  let fd = connect port in
  send_fd fd "#priority high\n";
  Alcotest.(check string) "priority ack" "#ok priority high" (read_line_fd fd);
  send_fd fd "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)\n";
  let reply = read_line_fd fd in
  Alcotest.(check bool) ("ok reply, got " ^ reply) true
    (contains "[1] ok (" reply);
  send_fd fd "#drain\n";
  Alcotest.(check string) "drain ack" "#ok draining" (read_line_fd fd);
  Unix.close fd;
  let rest = read_all_fd stdout_r in
  Unix.close stdout_r;
  let code = wait_exit pid in
  Alcotest.(check int) "clean exit after #drain" 0 code;
  Alcotest.(check bool) "drain summary printed" true
    (contains "-- drain:" rest && contains "invariant ok" rest)

(* the update workload end to end: inserts/deletes over TCP change
   later answers (per-connection ordering is guaranteed), repeated
   queries hit the cache, #stats exposes the counters, and --datalog
   IDB relations are maintained incrementally *)
let test_listen_updates_and_cache () =
  with_listen ~null_rate:"0"
      [ "--listen"; "127.0.0.1:0"; "--scale"; "2"; "--seed"; "1"; "--datalog";
        "reach(x,y) :- Payments(x,y). reach(x,z) :- Payments(x,y), reach(y,z)." ]
  @@ fun pid stdout_r port ->
  let fd = connect port in
  let ask n q expect =
    send_fd fd (q ^ "\n");
    let reply = read_line_fd fd in
    Alcotest.(check bool)
      (Printf.sprintf "[%d] %s, got %s" n expect reply)
      true
      (contains (Printf.sprintf "[%d] %s" n expect) reply)
  in
  ask 1 "SELECT * FROM reach" "ok (2 tuples)";
  ask 2 "insert Payments(o1,o2)" "ok updated Payments,reach";
  (* o1→o2 plus the transitive c1→o2 *)
  ask 3 "SELECT * FROM reach" "ok (4 tuples)";
  ask 4 "SELECT * FROM reach" "ok (4 tuples)";
  send_fd fd "#stats\n";
  let stats = read_line_fd fd in
  Alcotest.(check bool) ("stats line, got " ^ stats) true
    (contains "#stats hits=" stats && contains "stale=" stats);
  (* under the CI fault leg every lookup may miss; the hit count is
     only deterministic without injected faults *)
  if Sys.getenv_opt "INCDB_FAULT" = None then
    Alcotest.(check bool) ("repeat query hit the cache: " ^ stats) true
      (contains "hits=1" stats);
  ask 5 "delete Payments(o1,o2)" "ok updated Payments,reach";
  ask 6 "SELECT * FROM reach" "ok (2 tuples)";
  ask 7 "insert Payments(o1,o2)" "ok updated Payments,reach";
  ask 8 "delete Payments(o9,o9)" "ok updated (no-op)";
  ask 9 "insert nosuch(1)" "parse error:";
  send_fd fd "#drain\n";
  Alcotest.(check string) "drain ack" "#ok draining" (read_line_fd fd);
  Unix.close fd;
  let rest = read_all_fd stdout_r in
  Unix.close stdout_r;
  let code = wait_exit pid in
  Alcotest.(check int) "clean exit" 0 code;
  Alcotest.(check bool) "invariant held" true (contains "invariant ok" rest);
  Alcotest.(check bool) "cache summary printed" true
    (contains "-- cache: hits=" rest)

(* under --budget 1 every answer degrades to Q⁺, which reads only the
   query's relations: its cache entry survives an update to a relation
   the query does not read and goes stale on one it does *)
let test_listen_degraded_deps () =
  with_listen ~null_rate:"0" [ "--listen"; "127.0.0.1:0"; "--budget"; "1" ]
  @@ fun pid stdout_r port ->
  let fd = connect port in
  let ask n q expect =
    send_fd fd (q ^ "\n");
    let reply = read_line_fd fd in
    Alcotest.(check bool)
      (Printf.sprintf "[%d] %s, got %s" n expect reply)
      true
      (contains (Printf.sprintf "[%d] %s" n expect) reply)
  in
  let stats () =
    send_fd fd "#stats\n";
    read_line_fd fd
  in
  let deterministic = Sys.getenv_opt "INCDB_FAULT" = None in
  ask 1 "SELECT title FROM Orders" "degraded (3 tuples";
  ask 2 "insert Payments(o9,o9)" "ok updated Payments";
  ask 3 "SELECT title FROM Orders" "degraded (3 tuples";
  let s = stats () in
  if deterministic then
    Alcotest.(check bool) ("unread update keeps the entry: " ^ s) true
      (contains "hits=1 " s && contains "stale=0 " s);
  ask 4 "insert Orders(o9,t9,9)" "ok updated Orders";
  ask 5 "SELECT title FROM Orders" "degraded (4 tuples";
  let s = stats () in
  if deterministic then
    Alcotest.(check bool) ("read update invalidates it: " ^ s) true
      (contains "hits=1 " s && contains "stale=1 " s);
  send_fd fd "#drain\n";
  Alcotest.(check string) "drain ack" "#ok draining" (read_line_fd fd);
  Unix.close fd;
  ignore (read_all_fd stdout_r);
  Unix.close stdout_r;
  Alcotest.(check int) "clean exit" 0 (wait_exit pid)

let test_listen_no_cache () =
  with_listen [ "--listen"; "127.0.0.1:0"; "--no-cache" ]
  @@ fun pid stdout_r port ->
  let fd = connect port in
  send_fd fd "#stats\n";
  (* pool scheduler counters may follow the cache part of the line
     (machine-dependent: Pool.auto is None on a single-core host) *)
  let stats = read_line_fd fd in
  Alcotest.(check bool) "stats disabled" true
    (String.starts_with ~prefix:"#stats cache disabled" stats);
  send_fd fd "#drain\n";
  Alcotest.(check string) "drain ack" "#ok draining" (read_line_fd fd);
  Unix.close fd;
  let rest = read_all_fd stdout_r in
  Unix.close stdout_r;
  ignore (wait_exit pid);
  Alcotest.(check bool) "no cache summary" false (contains "-- cache:" rest)

let test_listen_sigterm_drain () =
  with_listen [ "--listen"; "127.0.0.1:0"; "--drain-deadline"; "1" ]
  @@ fun pid stdout_r port ->
  (* leave a connection open so the drain actually has a client to shut
     out, then deliver the signal *)
  let fd = connect port in
  send_fd fd "SELECT title FROM Orders\n";
  let reply = read_line_fd fd in
  Alcotest.(check bool) ("served before signal, got " ^ reply) true
    (contains "[1] ok (" reply);
  Unix.kill pid Sys.sigterm;
  let rest = read_all_fd stdout_r in
  Unix.close stdout_r;
  let code = wait_exit pid in
  Unix.close fd;
  Alcotest.(check int) "clean exit after SIGTERM" 0 code;
  Alcotest.(check bool) "counters summary printed" true
    (contains "-- queries:" rest);
  Alcotest.(check bool) "invariant held" true (contains "invariant ok" rest)

(* ------------------------------------------------------------------ *)
(* durability: --data, the WAL, snapshots, and crash recovery          *)
(* ------------------------------------------------------------------ *)

(* a child we SIGKILLed on purpose: reap it and insist on the signal
   (a normal exit here would mean the kill raced a clean shutdown and
   the test proved nothing) *)
let wait_killed pid =
  match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, Unix.WEXITED c ->
    Alcotest.fail (Printf.sprintf "child exited %d before the kill landed" c)
  | _ -> Alcotest.fail "child ended in an unexpected way"

let fresh_data_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "incdb-cli-data-%d-%d" (Unix.getpid ()) !ctr)
    in
    (match Sys.readdir d with
     | files -> Array.iter (fun f -> Sys.remove (Filename.concat d f)) files
     | exception Sys_error _ -> ());
    d

(* like spawn, but with stderr captured too (recovery banners and
   torn-tail warnings are diagnostics, not protocol) *)
let spawn_err ?(env = []) args =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  (* same override semantics as [spawn]: our entries replace inherited
     bindings of the same variable *)
  let overridden e =
    List.exists
      (fun o ->
        match String.index_opt o '=' with
        | None -> false
        | Some i ->
          let k = String.sub o 0 (i + 1) in
          String.length e >= String.length k
          && String.sub e 0 (String.length k) = k)
      env
  in
  let inherited =
    List.filter
      (fun e -> not (overridden e))
      (Array.to_list (Unix.environment ()))
  in
  let full_env = Array.of_list (env @ inherited) in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      full_env in_r out_w err_w
  in
  Unix.close in_r;
  Unix.close out_w;
  Unix.close err_w;
  (pid, in_w, out_r, err_r)

(* run `serve` over stdin to completion: feed [input], return
   (exit code, stdout, stderr) *)
let run_serve ?(env = []) args input =
  let pid, stdin_w, stdout_r, stderr_r = spawn_err ~env args in
  write_stdin stdin_w input;
  let out = read_all_fd stdout_r in
  Unix.close stdout_r;
  let err = read_all_fd stderr_r in
  Unix.close stderr_r;
  let code = wait_exit pid in
  (code, out, err)

(* argument tails: [with_listen] supplies "serve --null-rate" itself,
   [run_serve] wants the full vector *)
let data_tail dir extra = [ "--data"; dir; "--no-cache" ] @ extra
let serve_data dir extra =
  [ "serve"; "--null-rate"; "0" ] @ data_tail dir extra

(* every update acknowledged before the SIGKILL must be in the
   recovered database — with --snapshot-every in play, recovery crosses
   a snapshot image plus a log tail *)
let test_kill_after_acks () =
  let dir = fresh_data_dir () in
  with_listen ~null_rate:"0"
      (data_tail dir
         [ "--listen"; "127.0.0.1:0"; "--fsync"; "never";
           "--snapshot-every"; "10" ]) @@ fun pid stdout_r port ->
  let fd = connect port in
  let k = 25 in
  for i = 1 to k do
    send_fd fd (Printf.sprintf "insert Customers(k%d,n%d)\n" i i);
    let reply = read_line_fd fd in
    Alcotest.(check bool)
      (Printf.sprintf "ack %d, got %s" i reply)
      true
      (contains (Printf.sprintf "[%d] ok updated Customers" i) reply)
  done;
  Unix.kill pid Sys.sigkill;
  wait_killed pid;
  Unix.close fd;
  Unix.close stdout_r;
  let code, out, err =
    run_serve (serve_data dir [])
      "SELECT * FROM Customers\n\
       SELECT name FROM Customers WHERE cid = 'k1'\n\
       SELECT name FROM Customers WHERE cid = 'k25'\n"
  in
  Alcotest.(check int) "recovered process exits cleanly" 0 code;
  Alcotest.(check bool) ("recovery banner in: " ^ err) true
    (contains "recovered from" err);
  Alcotest.(check bool)
    (Printf.sprintf "all %d acknowledged inserts survive: %s" k out)
    true
    (contains (Printf.sprintf "[1] ok (%d tuples)" (2 + k)) out);
  Alcotest.(check bool) "first key present" true
    (contains "[2] ok (1 tuples)" out);
  Alcotest.(check bool) "last key present" true
    (contains "[3] ok (1 tuples)" out)

(* kill mid-stream without reading acks: some prefix M of the sent
   updates survives, and it must be exactly a prefix — a gap would
   mean the log acknowledged i+1 while losing i *)
let test_kill_mid_storm_prefix () =
  let dir = fresh_data_dir () in
  let pid, stdin_w, stdout_r = spawn (serve_data dir []) in
  let k = 40 in
  let storm = Buffer.create 1024 in
  for i = 1 to k do
    Buffer.add_string storm (Printf.sprintf "insert Customers(k%d,n%d)\n" i i)
  done;
  (* keep stdin open: EOF would trigger a clean drain and defeat the
     crash *)
  ignore
    (Unix.write stdin_w
       (Buffer.to_bytes storm)
       0
       (Buffer.length storm));
  Unix.sleepf 0.05;
  Unix.kill pid Sys.sigkill;
  wait_killed pid;
  Unix.close stdin_w;
  Unix.close stdout_r;
  let probes = Buffer.create 1024 in
  for i = 1 to k do
    Buffer.add_string probes
      (Printf.sprintf "SELECT name FROM Customers WHERE cid = 'k%d'\n" i)
  done;
  let code, out, _ =
    run_serve (serve_data dir []) (Buffer.contents probes)
  in
  Alcotest.(check int) "recovered process exits cleanly" 0 code;
  let present i = contains (Printf.sprintf "[%d] ok (1 tuples)" i) out in
  let absent i = contains (Printf.sprintf "[%d] ok (0 tuples)" i) out in
  let m = ref 0 in
  for i = 1 to k do
    if present i then begin
      Alcotest.(check bool)
        (Printf.sprintf "no gap: %d present only if %d was" i (i - 1))
        true
        (i = 1 || present (i - 1));
      incr m
    end
    else
      Alcotest.(check bool) (Printf.sprintf "probe %d answered" i) true
        (absent i)
  done;
  (* the default --fsync always makes every *applied* update durable;
     under the CI wal delay faults the committer may not have reached
     very far, which is fine — the property is the prefix, not M *)
  Alcotest.(check bool)
    (Printf.sprintf "recovered prefix M=%d within [0,%d]" !m k)
    true
    (!m >= 0 && !m <= k)

(* --datalog recovery is differential: the recovered process must
   answer exactly like a fresh process that applied the same updates
   and never died *)
let test_datalog_recovery_differential () =
  let dir = fresh_data_dir () in
  let program =
    "reach(x,y) :- Payments(x,y). reach(x,z) :- Payments(x,y), reach(y,z)."
  in
  let updates =
    [ "insert Payments(o1,o2)"; "insert Payments(o2,o7)";
      "insert Payments(o7,o8)"; "delete Payments(o2,o7)" ]
  in
  with_listen ~null_rate:"0"
      (data_tail dir [ "--listen"; "127.0.0.1:0"; "--datalog"; program ])
  @@ fun pid stdout_r port ->
  let fd = connect port in
  List.iteri
    (fun i u ->
      send_fd fd (u ^ "\n");
      let reply = read_line_fd fd in
      Alcotest.(check bool)
        (Printf.sprintf "ack %d, got %s" (i + 1) reply)
        true
        (contains (Printf.sprintf "[%d] ok updated" (i + 1)) reply))
    updates;
  Unix.kill pid Sys.sigkill;
  wait_killed pid;
  Unix.close fd;
  Unix.close stdout_r;
  let reach_count out =
    (* "[1] ok (N tuples)" -> N *)
    match String.index_opt out '(' with
    | Some i ->
      (match String.index_from_opt out i ' ' with
       | Some j ->
         int_of_string_opt (String.sub out (i + 1) (j - i - 1))
       | None -> None)
    | None -> None
  in
  let _, recovered, err =
    run_serve
      (serve_data dir [ "--datalog"; program ])
      "SELECT * FROM reach\n"
  in
  Alcotest.(check bool) ("recovery banner in: " ^ err) true
    (contains "recovered from" err);
  let _, fresh, _ =
    run_serve
      [ "serve"; "--null-rate"; "0"; "--no-cache"; "--datalog"; program ]
      (String.concat "\n" updates ^ "\nSELECT * FROM reach\n")
  in
  (* the fresh process's select is request 5; anchor on its response
     line (the counters summary also contains parentheses) *)
  let fresh_count =
    let anchor = "[5] ok (" in
    let rec find i =
      if i + String.length anchor > String.length fresh then None
      else if String.sub fresh i (String.length anchor) = anchor then
        Some (i + String.length anchor)
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
      (match String.index_from_opt fresh i ' ' with
       | Some j -> int_of_string_opt (String.sub fresh i (j - i))
       | None -> None)
    | None -> None
  in
  match (reach_count recovered, fresh_count) with
  | Some r, Some f ->
    Alcotest.(check int)
      (Printf.sprintf "recovered reach = fresh reach (out: %s)" recovered)
      f r;
    Alcotest.(check bool) "non-trivial fixpoint" true (f > 0)
  | _ ->
    Alcotest.fail
      (Printf.sprintf "unparsable counts; recovered: %s fresh: %s" recovered
         fresh)

(* torn tails: garbage after the last frame is cut with a warning and
   costs nothing; tearing the last frame itself loses exactly that
   update *)
let test_torn_tail_cli () =
  let dir = fresh_data_dir () in
  let code, _, _ =
    run_serve
      (serve_data dir [])
      "insert Customers(k1,n1)\n\
       insert Customers(k2,n2)\n\
       insert Customers(k3,n3)\n"
  in
  Alcotest.(check int) "storm exits cleanly" 0 code;
  let log = Filename.concat dir "wal.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  ignore (Unix.write fd (Bytes.of_string "@@@") 0 3);
  Unix.close fd;
  let code, out, err =
    run_serve (serve_data dir [])
      "SELECT * FROM Customers\n#stats\n"
  in
  Alcotest.(check int) "garbage tail: clean recovery" 0 code;
  Alcotest.(check bool) ("torn-tail warning in: " ^ err) true
    (contains "truncated 3 trailing byte" err);
  Alcotest.(check bool) ("no update lost: " ^ out) true
    (contains "[1] ok (5 tuples)" out);
  Alcotest.(check bool) ("#stats reports the damage: " ^ out) true
    (contains "truncated_bytes=3" out);
  (* now tear the last frame itself *)
  let size = (Unix.stat log).Unix.st_size in
  let fd = Unix.openfile log [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 3);
  Unix.close fd;
  let code, out, err =
    run_serve (serve_data dir [])
      "SELECT * FROM Customers\n\
       SELECT name FROM Customers WHERE cid = 'k2'\n\
       SELECT name FROM Customers WHERE cid = 'k3'\n"
  in
  Alcotest.(check int) "torn frame: clean recovery" 0 code;
  Alcotest.(check bool) ("torn-frame warning in: " ^ err) true
    (contains "truncated" err);
  Alcotest.(check bool) ("exactly the torn update lost: " ^ out) true
    (contains "[1] ok (4 tuples)" out);
  Alcotest.(check bool) "earlier update intact" true
    (contains "[2] ok (1 tuples)" out);
  Alcotest.(check bool) "torn update gone" true
    (contains "[3] ok (0 tuples)" out)

(* log-before-ack under an injected WAL fault: the update is rejected
   with the structured line, never applied, and never resurrected *)
let test_wal_fault_rejects () =
  let dir = fresh_data_dir () in
  let code, out, _ =
    run_serve
      ~env:[ "INCDB_FAULT=wal.append:1.0:7" ]
      (serve_data dir [])
      "insert Customers(kx,nx)\nSELECT * FROM Customers\n"
  in
  Alcotest.(check int) "wal rejection does not flip the exit" 0 code;
  Alcotest.(check bool) ("structured rejection in: " ^ out) true
    (contains "[1] failed (wal): injected fault at wal.append" out);
  Alcotest.(check bool) ("update never applied: " ^ out) true
    (contains "[2] ok (2 tuples)" out);
  let _, out, _ =
    run_serve (serve_data dir []) "SELECT * FROM Customers\n"
  in
  Alcotest.(check bool) ("update never recovered: " ^ out) true
    (contains "[1] ok (2 tuples)" out)

(* #snapshot over TCP, and a drain racing a deliberately slow snapshot
   (delay-mode wal.snapshot fault): the drain completes with the
   invariant intact and the image is never torn *)
let test_drain_during_snapshot () =
  let dir = fresh_data_dir () in
  with_listen ~null_rate:"0"
      (data_tail dir [ "--listen"; "127.0.0.1:0" ]) @@ fun pid stdout_r port ->
  (* no INCDB_FAULT here: with_listen inherits ours; install the slow
     snapshot via a second connection's timing instead — the delay
     fault variant runs in CI where the env spans the whole suite *)
  let fd = connect port in
  send_fd fd "insert Customers(s1,snap)\n";
  let reply = read_line_fd fd in
  Alcotest.(check bool) ("ack, got " ^ reply) true
    (contains "[1] ok updated Customers" reply);
  send_fd fd "#snapshot\n";
  let snap = read_line_fd fd in
  Alcotest.(check bool) ("snapshot ack, got " ^ snap) true
    (contains "#ok snapshot seq=1" snap);
  let fd2 = connect port in
  send_fd fd2 "#snapshot\n";
  send_fd fd "#drain\n";
  let _ = read_line_fd fd2 in
  Alcotest.(check string) "drain ack" "#ok draining" (read_line_fd fd);
  Unix.close fd;
  Unix.close fd2;
  let rest = read_all_fd stdout_r in
  Unix.close stdout_r;
  let code = wait_exit pid in
  Alcotest.(check int) "clean exit" 0 code;
  Alcotest.(check bool) "invariant held" true (contains "invariant ok" rest);
  Alcotest.(check bool) "wal summary printed" true (contains "-- wal seq=" rest);
  (* the image is whole: recovery must load it, not refuse it *)
  let code, out, err =
    run_serve (serve_data dir [])
      "SELECT name FROM Customers WHERE cid = 's1'\n"
  in
  Alcotest.(check int) "image never torn" 0 code;
  Alcotest.(check bool) ("snapshot loaded: " ^ err) true
    (contains "snapshot loaded" err);
  Alcotest.(check bool) "snapshotted update present" true
    (contains "[1] ok (1 tuples)" out)

(* drain as the very first action after a recovery: the freshly
   recovered server must reach quiescence cleanly *)
let test_drain_after_recovery () =
  let dir = fresh_data_dir () in
  let code, _, _ =
    run_serve (serve_data dir [])
      "insert Customers(r1,rec)\n"
  in
  Alcotest.(check int) "seed storm clean" 0 code;
  with_listen ~null_rate:"0"
      (data_tail dir [ "--listen"; "127.0.0.1:0" ]) @@ fun pid stdout_r port ->
  let fd = connect port in
  send_fd fd "#drain\n";
  Alcotest.(check string) "drain ack" "#ok draining" (read_line_fd fd);
  Unix.close fd;
  let rest = read_all_fd stdout_r in
  Unix.close stdout_r;
  let code = wait_exit pid in
  Alcotest.(check int) "clean exit" 0 code;
  Alcotest.(check bool) "invariant held" true (contains "invariant ok" rest)

(* #snapshot without --data is a structured error, not a crash *)
let test_snapshot_without_data () =
  let code, out, _ =
    run_serve [ "serve"; "--null-rate"; "0"; "--no-cache" ] "#snapshot\n"
  in
  Alcotest.(check int) "clean exit" 0 code;
  Alcotest.(check bool) ("structured error in: " ^ out) true
    (contains "#err snapshot: no durable --data directory" out)

(* stdin mode answers each query on the database as of its own line:
   the Orders row inserted on line [4] never shows in line [3]'s
   answer, however the worker is scheduled *)
let test_stdin_answers_as_of_line () =
  for run = 1 to 5 do
    let code, out, _ =
      run_serve
        [ "serve"; "--null-rate"; "0"; "--budget"; "1"; "--workers"; "1" ]
        "SELECT title FROM Orders\n\
         insert Payments(o9,o9)\n\
         SELECT title FROM Orders\n\
         #stats\n\
         insert Orders(o9,t9,9)\n\
         SELECT title FROM Orders\n"
    in
    Alcotest.(check int) "clean exit" 0 code;
    Alcotest.(check bool)
      (Printf.sprintf "run %d: [3] answers 3 tuples: %s" run out)
      true
      (contains "[3] degraded (3 tuples" out);
    Alcotest.(check bool)
      (Printf.sprintf "run %d: [5] sees the insert: %s" run out)
      true
      (contains "[5] degraded (4 tuples" out)
  done

(* ------------------------------------------------------------------ *)
(* suite                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cli-serve"
    [ ( "stdin",
        [ Alcotest.test_case "outcome lines + summary + exit 0" `Quick
            test_stdin_ok;
          Alcotest.test_case "failed query flips the exit code" `Quick
            test_stdin_failed_exit;
          Alcotest.test_case "each query sees the database of its line" `Quick
            test_stdin_answers_as_of_line ] );
      ( "listen",
        [ Alcotest.test_case "TCP round trip + #drain" `Quick
            test_listen_roundtrip;
          Alcotest.test_case "updates, cache hits and #stats" `Quick
            test_listen_updates_and_cache;
          Alcotest.test_case "degraded entries depend on read relations"
            `Quick test_listen_degraded_deps;
          Alcotest.test_case "--no-cache disables #stats" `Quick
            test_listen_no_cache;
          Alcotest.test_case "SIGTERM drains gracefully" `Quick
            test_listen_sigterm_drain ] );
      ( "durability",
        [ Alcotest.test_case "SIGKILL after acks: all survive" `Quick
            test_kill_after_acks;
          Alcotest.test_case "SIGKILL mid-storm: exact prefix" `Quick
            test_kill_mid_storm_prefix;
          Alcotest.test_case "--datalog recovery is differential" `Quick
            test_datalog_recovery_differential;
          Alcotest.test_case "torn tails truncated, never crash" `Quick
            test_torn_tail_cli;
          Alcotest.test_case "wal fault rejects before apply" `Quick
            test_wal_fault_rejects;
          Alcotest.test_case "#snapshot + drain race" `Quick
            test_drain_during_snapshot;
          Alcotest.test_case "drain right after recovery" `Quick
            test_drain_after_recovery;
          Alcotest.test_case "#snapshot without --data" `Quick
            test_snapshot_without_data ] ) ]
