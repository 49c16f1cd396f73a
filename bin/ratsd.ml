(* ratsd: the online scheduler-as-a-service daemon.

   Serves the Server.Engine over a Unix-domain socket speaking
   Server.Protocol (length-prefixed JSON frames): clients submit DAGs,
   subscribe to the event stream, trigger drains and read the log. The
   daemon is single-threaded by design — admission, dispatch and the
   shared simulation run inside the select loop, so the event log is a
   deterministic function of the accepted submissions, which the journal
   makes crash-recoverable (--resume).

   This file is the command line and the select loop. What happens on a
   connection — dispatch, buffered output, slow-client eviction, degraded
   mode, the client fault sites (docs/SERVER.md "Failure semantics") — is
   Server.Daemon, which writes through the non-blocking sockets below.

   Examples:
     dune exec bin/ratsd.exe -- --socket /tmp/ratsd.sock &
     dune exec bin/ratsd.exe -- --selftest --load-jobs 200 --tenants 8
     dune exec bin/ratsd.exe -- --resume --journal myrun *)

open Cmdliner
module Engine = Rats_server.Engine
module Daemon = Rats_server.Daemon
module Protocol = Rats_server.Protocol
module Api = Rats_server.Api
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
module Study = Rats_workload_study.Study
module Journal = Rats_runtime.Journal
module Fault = Rats_runtime.Fault
module Rats = Rats_core.Rats
module J = Rats_obs.Json
module Instr = Rats_obs.Instr

(* --- startup probe ------------------------------------------------------- *)

(* Only remove a socket file that no daemon answers on. A live daemon
   (answers ping) or an unidentifiable listener makes startup fail
   instead of stealing the path; a non-socket file is never touched. *)
let claim_socket_path socket_path =
  match Unix.stat socket_path with
  | exception Unix.Unix_error (ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
          | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
              (* Stale: nothing is listening. *)
              (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
              Ok ()
          | () -> (
              let ping =
                Protocol.to_frame (Protocol.client_to_json Protocol.Ping)
              in
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.;
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.;
              match
                let n = String.length ping in
                let pos = ref 0 in
                while !pos < n do
                  pos := !pos + Unix.write_substring fd ping !pos (n - !pos)
                done;
                Unix.read fd (Bytes.create 4096) 0 4096
              with
              | 0 ->
                  (* Listener hung up without answering: likely a daemon
                     shutting down — treat the path as stale. *)
                  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
                  Ok ()
              | _ ->
                  Error
                    (Printf.sprintf
                       "a live daemon is already serving %s (it answered); \
                        use --socket for a second instance"
                       socket_path)
              | exception Unix.Unix_error _ ->
                  Error
                    (Printf.sprintf
                       "something is listening on %s but did not answer a \
                        ping; refusing to replace it"
                       socket_path))))
  | _ ->
      Error
        (Printf.sprintf "%s exists and is not a socket; refusing to remove it"
           socket_path)
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot stat %s: %s" socket_path (Unix.error_message e))

(* --- select loop --------------------------------------------------------- *)

(* Cap the kernel-side send buffer so a non-reading client backs up into
   our accounted buffer quickly (and deterministically small --client-buffer
   settings actually bite). The kernel clamps to its own minimum. *)
let tune_sndbuf fd client_buffer =
  try Unix.setsockopt_int fd Unix.SO_SNDBUF (min client_buffer (256 * 1024))
  with Unix.Unix_error _ -> ()

(* Sockets are non-blocking: a write takes what the kernel buffer holds. *)
let transport fd =
  {
    Daemon.write =
      (fun s off len ->
        match Unix.write_substring fd s off len with
        | n -> Daemon.Wrote n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            Daemon.Again
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
            Daemon.Broken);
  }

let final_flush daemon conns =
  (* Best-effort, bounded: give slow-but-live clients ~1s to take the
     shutdown replies, then close regardless. *)
  let deadline = Instr.now_s () +. 1. in
  let rec go () =
    match List.filter (fun (_, c) -> Daemon.wants_write c) conns with
    | [] -> ()
    | ps when Instr.now_s () < deadline ->
        (match Unix.select [] (List.map fst ps) [] 0.05 with
        | _, writable, _ ->
            List.iter
              (fun (fd, c) ->
                if List.mem fd writable then Daemon.flush daemon c)
              ps
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        go ()
    | _ -> ()
  in
  go ()

let serve daemon ~client_buffer socket_path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket_path);
  Unix.listen lfd 64;
  Format.printf "ratsd: listening on %s@." socket_path;
  (* Live connections in accept order; dead ones are closed at the end of
     each round, so a recycled descriptor never meets its old client. *)
  let conns = ref [] in
  let buf = Bytes.create 65536 in
  while not (Daemon.stopped daemon) do
    let writable_fds =
      List.filter_map
        (fun (fd, c) -> if Daemon.wants_write c then Some fd else None)
        !conns
    in
    (match Unix.select (lfd :: List.map fst !conns) writable_fds [] (-1.) with
    | readable, writable, _ ->
        List.iter
          (fun (fd, c) -> if List.mem fd writable then Daemon.flush daemon c)
          !conns;
        List.iter
          (fun fd ->
            if fd = lfd then begin
              let cfd, _ = Unix.accept lfd in
              Unix.set_nonblock cfd;
              tune_sndbuf cfd client_buffer;
              conns := !conns @ [ (cfd, Daemon.connect daemon (transport cfd)) ]
            end
            else
              match List.assoc_opt fd !conns with
              | Some c when Daemon.alive c -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> Daemon.hang_up daemon c
                  | n -> Daemon.receive daemon c buf n
                  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _)
                    ->
                      ()
                  | exception Unix.Unix_error (ECONNRESET, _, _) ->
                      Daemon.hang_up daemon c)
              | _ -> ())
          readable
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    conns :=
      List.filter
        (fun (fd, c) ->
          Daemon.alive c
          || ((try Unix.close fd with Unix.Unix_error _ -> ());
              false))
        !conns
  done;
  final_flush daemon !conns;
  List.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    !conns;
  Unix.close lfd;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ())

(* --- selftest: simulated-time load trace -------------------------------- *)

let selftest cluster policy jobs fault load_jobs tenants rate seed =
  let failures = ref 0 in
  List.iter
    (fun (strategy, arm) ->
      let profile =
        Profile.service ~cluster ~n_jobs:load_jobs ~n_tenants:tenants ~rate
          ~seed ~strategy ()
      in
      let trace = Trace.compile profile in
      let name = Rats.strategy_name strategy in
      Format.printf "@.=== %s: %d jobs, %d tenants, %.3f jobs/s ===@." name
        load_jobs tenants rate;
      let run () =
        let rev_log = ref [] in
        let on_event ev =
          rev_log := J.to_string (Api.stamped_to_json ev) :: !rev_log
        in
        let report =
          Study.run_arm ~policy ?jobs ?fault ~on_event ~cluster ~profile ~trace
            arm
        in
        (report, !rev_log)
      in
      let report, log1 = run () in
      let _, log2 = run () in
      Format.printf "%a@." Report.pp report;
      if log1 <> log2 then begin
        incr failures;
        Format.printf "FAIL: %s event log differs between identical runs@."
          name
      end
      else
        Format.printf "determinism: %d events, re-run byte-identical@."
          (List.length log1);
      let r = report in
      if
        r.Report.completed + r.Report.rejected + r.Report.expired
        <> r.Report.jobs
      then begin
        incr failures;
        Format.printf "FAIL: %s lost jobs (%d submitted, %d completed, %d \
                       rejected, %d expired)@."
          name r.Report.jobs r.Report.completed r.Report.rejected
          r.Report.expired
      end)
    [ (Rats.Baseline, Study.Hcpa); (Rats.Delta Rats.naive_delta, Study.Delta) ];
  if !failures > 0 then begin
    Format.printf "@.selftest: %d failure(s)@." !failures;
    exit 1
  end;
  Format.printf "@.selftest: OK@."

(* --- command line -------------------------------------------------------- *)

let run cluster socket selftest_flag queue_limit tenant_limit shed_watermark
    retry_after deadline client_buffer backlog_limit jobs journal_name
    journal_dir resume load_jobs tenants rate seed trace metrics =
  Common.with_obs trace metrics @@ fun () ->
  let fault = Fault.of_env () in
  let policy =
    Rats_server.Admission.make ~shed_watermark ~retry_after_s:retry_after
      ?deadline_s:(if deadline > 0. then Some deadline else None)
      ~queue_limit ~tenant_limit ()
  in
  let jobs = if jobs = 0 then None else Some jobs in
  (match fault with
  | Some f -> Printf.eprintf "ratsd: fault injection armed: %s\n%!" (Fault.spec f)
  | None -> ());
  if selftest_flag then
    selftest cluster policy jobs fault load_jobs tenants rate seed
  else begin
    match claim_socket_path socket with
    | Error msg ->
        prerr_endline ("ratsd: " ^ msg);
        exit 1
    | Ok () ->
        let journal =
          Journal.open_ ?dir:journal_dir ?fault ~name:journal_name ~resume ()
        in
        let config =
          { (Engine.default_config cluster) with Engine.policy; jobs; fault }
        in
        let engine = Engine.create ~journal config in
        if resume then begin
          let n = Engine.resume engine in
          Format.printf "ratsd: resumed %d journaled submission(s)@." n
        end;
        let daemon =
          Daemon.create ?fault ~journal ~client_buffer ~backlog_limit engine
        in
        Fun.protect
          ~finally:(fun () -> Journal.close journal)
          (fun () -> serve daemon ~client_buffer socket)
  end

let socket_term =
  Arg.(
    value
    & opt string "/tmp/ratsd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "RATS_SOCKET")
        ~doc:"Unix-domain socket to listen on.")

let selftest_term =
  Arg.(
    value & flag
    & info [ "selftest" ]
        ~doc:
          "Run the simulated-time load driver instead of serving: Poisson \
           arrivals from several tenants under both HCPA and RATS, with a \
           byte-identical re-run determinism check. Exits non-zero on any \
           failure.")

let queue_limit_term =
  Arg.(
    value & opt int 256
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:"Admission: reject when the waiting queue holds $(docv) jobs.")

let tenant_limit_term =
  Arg.(
    value & opt int 64
    & info [ "tenant-limit" ] ~docv:"N"
        ~doc:
          "Admission: reject a tenant with $(docv) jobs queued or running.")

let shed_watermark_term =
  Arg.(
    value & opt float 1.
    & info [ "shed-watermark" ] ~docv:"F"
        ~doc:
          "Admission: shed arrivals (reject overloaded, with a retry-after \
           hint) once the queue is $(docv) full (fraction of the queue \
           limit, in (0,1]); 1 disables shedding.")

let retry_after_term =
  Arg.(
    value & opt float 1.
    & info [ "retry-after" ] ~docv:"S"
        ~doc:
          "Admission: base retry-after hint in simulated seconds carried \
           by overloaded rejections, scaled by how far past the watermark \
           the queue is.")

let deadline_term =
  Arg.(
    value & opt float 0.
    & info [ "deadline" ] ~docv:"S"
        ~doc:
          "Admission: drop a queued job (expired event) if it has not \
           started $(docv) simulated seconds after arrival; 0 disables.")

let client_buffer_term =
  Arg.(
    value
    & opt int (4 * 1024 * 1024)
    & info [ "client-buffer" ] ~docv:"BYTES"
        ~doc:
          "Evict a client once $(docv) bytes of output are buffered for it \
           (a slow or stalled reader never blocks the service).")

let backlog_limit_term =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "backlog-limit" ] ~docv:"BYTES"
        ~doc:
          "Degrade (shed event streams, refuse new watch/log) when the \
           total output buffered across clients exceeds $(docv) bytes; \
           recover below half.")

let jobs_term =
  Arg.(
    value & opt int 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for batch schedule computation; 0 = automatic. \
           Never affects results.")

let journal_term =
  Arg.(
    value & opt string "ratsd"
    & info [ "journal" ] ~docv:"NAME"
        ~doc:"Journal name for crash-recoverable submissions.")

let journal_dir_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-dir" ] ~docv:"DIR"
        ~doc:"Journal directory (default: bench_results/.journal).")

let resume_term =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Reload the journaled submissions of a previous run before \
           serving; a subsequent drain replays them bit-exactly.")

let load_jobs_term =
  Arg.(
    value & opt int 120
    & info [ "load-jobs" ] ~docv:"N" ~doc:"Selftest: total jobs to submit.")

let tenants_term =
  Arg.(
    value & opt int 4
    & info [ "tenants" ] ~docv:"N" ~doc:"Selftest: number of tenants.")

let rate_term =
  Arg.(
    value & opt float 0.05
    & info [ "rate" ] ~docv:"R"
        ~doc:"Selftest: aggregate arrival rate, jobs per simulated second.")

let seed_term =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"S" ~doc:"Selftest: arrival-trace random seed.")

let cmd =
  Cmd.v
    (Cmd.info "ratsd"
       ~doc:"Online RATS scheduling service over a Unix-domain socket")
    Term.(
      const run $ Common.cluster_term $ socket_term $ selftest_term
      $ queue_limit_term $ tenant_limit_term $ shed_watermark_term
      $ retry_after_term $ deadline_term $ client_buffer_term
      $ backlog_limit_term $ jobs_term $ journal_term $ journal_dir_term
      $ resume_term $ load_jobs_term $ tenants_term $ rate_term $ seed_term
      $ Common.trace_term $ Common.metrics_term)

let () = exit (Cmd.eval cmd)
