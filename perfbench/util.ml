(* Shared pieces of the benchmark: clocks, order statistics with their
   sample counts, the pass/fail ledger behind [attempted]/[failed], the
   run environment, and child-process management for the serving
   workloads. *)

module T = Report.Tabular

let now = Unix.gettimeofday
let timed = Stdx.Parallel.timed

let quantile a q = if Array.length a = 0 then nan else Stdx.Stats.quantile a q
let median a = quantile a 0.5
let minimum a = Array.fold_left Float.min infinity a

(* A latency summary always carries its sample count. p99 is only
   reported from 1000 samples up: below that it is (nearly) the maximum,
   which is not a tail estimate. *)
type dist = { n : int; p50 : float; p99 : float option; max : float }

let min_p99_samples = 1000

let dist a =
  let n = Array.length a in
  {
    n;
    p50 = median a;
    p99 = (if n >= min_p99_samples then Some (quantile a 0.99) else None);
    max = (if n = 0 then nan else Array.fold_left Float.max neg_infinity a);
  }

let json_of_dist d =
  T.Jobj
    ([ ("n", T.Jint d.n); ("p50", T.Jfloat d.p50) ]
    @ (match d.p99 with Some p -> [ ("p99", T.Jfloat p) ] | None -> [])
    @ [ ("max", T.Jfloat d.max) ])

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Every output check the benchmark makes. A failure is counted, and the
   first few are printed on stderr so a broken build says what broke. *)
module Ledger = struct
  let attempted = ref 0
  let failed = ref 0

  let check what ok =
    incr attempted;
    if not ok then begin
      incr failed;
      if !failed <= 10 then Printf.eprintf "perfbench: check failed: %s\n%!" what
    end

  let error_rate () =
    if !attempted = 0 then 0. else float_of_int !failed /. float_of_int !attempted
end

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "perfbench: %s\n%!" s) fmt

(* ---- environment ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      let ls = go [] in
      close_in ic;
      ls

let words s =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s))

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* "Max open files  20000  20000  files" -> "20000" (the soft limit). *)
let open_files_limit () =
  match List.find_opt (starts_with ~prefix:"Max open files") (read_lines "/proc/self/limits") with
  | None -> "unknown"
  | Some l -> (
      match words l with
      | _ :: _ :: _ :: soft :: _ -> soft
      | _ -> "unknown")

(* The git revision when the tree is a checkout; otherwise (a source
   export) "none", and [source_digest] identifies the code instead. *)
(* The commit HEAD names, through a loose or a packed ref; "none" when it
   cannot be resolved (outside a git checkout [source_digest] identifies
   the code). *)
let git_revision root =
  let git f = Filename.concat root (".git/" ^ f) in
  let packed r =
    let is_r l = match words l with [ _; x ] -> x = r | _ -> false in
    match List.find_opt is_r (read_lines (git "packed-refs")) with
    | Some l -> List.hd (words l)
    | None -> "none"
  in
  match String.trim (read_file (git "HEAD")) with
  | exception Sys_error _ -> "none"
  | s when starts_with ~prefix:"ref: " s -> (
      let r = String.trim (String.sub s 5 (String.length s - 5)) in
      match String.trim (read_file (git r)) with rev -> rev | exception Sys_error _ -> packed r)
  | rev -> rev

(* MD5 over every file under lib/ and bin/, in sorted path order. *)
let source_digest root =
  let files = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      Array.iter (fun f -> walk (Filename.concat rel f)) (Sys.readdir abs)
    else files := rel :: !files
  in
  List.iter (fun d -> if Sys.file_exists (Filename.concat root d) then walk d) [ "lib"; "bin" ];
  let files = List.sort compare !files in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.map
             (fun f -> f ^ "\000" ^ Digest.to_hex (Digest.file (Filename.concat root f)))
             files)))

(* CPU time the hypervisor gave to other guests: the steal column of
   /proc/stat's "cpu" line, all CPUs, in USER_HZ ticks (usually 1/100 s);
   None where there is no such column. Runs that were slow on an
   unchanged commit came with steal on the host the benchmark was tuned
   on. *)
let steal_ticks () =
  match List.find_opt (starts_with ~prefix:"cpu ") (read_lines "/proc/stat") with
  | Some l -> Option.bind (List.nth_opt (words l) 8) int_of_string_opt
  | None -> None

let environment ~root ~profile ~workload ~seed ~trace extra =
  T.Jobj
    ([
       ("workload", T.Jstr workload);
       ("seed", T.Jint seed);
       ("trace", T.Jbool trace);
       ("nproc", T.Jint (Domain.recommended_domain_count ()));
       ("ocaml", T.Jstr Sys.ocaml_version);
       ("git_revision", T.Jstr (git_revision root));
       ("source_digest", T.Jstr (source_digest root));
       ("build_profile", T.Jstr profile);
       ("ulimit_n", T.Jstr (open_files_limit ()));
       ("version", T.Jstr Stdx.Version.current);
     ]
    @ extra)

(* ---- memory ----------------------------------------------------------- *)

(* VmHWM of a process in MiB (peak resident set). *)
let vmhwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match List.find_opt (starts_with ~prefix:"VmHWM:") (read_lines path) with
  | None -> nan
  | Some l -> (
      match words l with
      | _ :: kb :: _ -> float_of_string kb /. 1024.
      | _ -> nan)

(* ---- CPU placement ----------------------------------------------------- *)

let can_pin =
  lazy
    (Domain.recommended_domain_count () > 1
    && Sys.command "taskset -c 0 true >/dev/null 2>&1" = 0)

(* Run [f] with every thread of this process, and every child it starts,
   on CPU 0, through taskset(1) where the system has it; then restore the
   affinity this process had. *)
let on_cpu0 f =
  if not (Lazy.force can_pin) then f ()
  else begin
    let pid = Unix.getpid () in
    let ic = Unix.open_process_in (Printf.sprintf "taskset -p %d" pid) in
    let mask = try List.nth (words (input_line ic)) 5 with _ -> "" in
    ignore (Unix.close_process_in ic);
    let set m = ignore (Sys.command (Printf.sprintf "taskset -a -p %s %d >/dev/null" m pid)) in
    set "-c 0";
    Fun.protect ~finally:(fun () -> if mask <> "" then set mask) f
  end

(* ---- child processes --------------------------------------------------- *)

module Proc = struct
  type t = { pid : int; name : string; mutable port : int; mutable reaped : bool }

  let live : t list ref = ref []

  let reap t =
    if not t.reaped then begin
      (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
      t.reaped <- true
    end;
    live := List.filter (fun p -> p.pid <> t.pid) !live

  let exited t =
    t.reaped
    ||
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> false
    | _ ->
        t.reaped <- true;
        true
    | exception Unix.Unix_error _ ->
        t.reaped <- true;
        true

  let kill_all () =
    List.iter
      (fun t ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap t)
      !live

  let () = at_exit kill_all

  (* Start [exe args] with its port written to a file under [dir]; return
     once the port is known. stdout (the "listening" banner) is dropped;
     stderr is kept so a daemon that dies says why. *)
  let spawn ~dir ~name exe args =
    let port_file = Filename.concat dir (name ^ ".port") in
    (try Sys.remove port_file with Sys_error _ -> ());
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let argv = Array.of_list ((exe :: args) @ [ "--port-file"; port_file; "-q" ]) in
    let pid = Unix.create_process exe argv devnull devnull Unix.stderr in
    Unix.close devnull;
    let t = { pid; name; port = 0; reaped = false } in
    live := t :: !live;
    let deadline = now () +. 20. in
    let rec wait () =
      let port =
        match read_file port_file with
        | s when String.contains s '\n' -> int_of_string_opt (String.trim s)
        | _ -> None
        | exception Sys_error _ -> None
      in
      match port with
      | Some p -> p
      | None ->
          if exited t then failwith (name ^ " exited before listening");
          if now () > deadline then failwith (name ^ ": no port file after 20 s");
          Unix.sleepf 0.002;
          wait ()
    in
    t.port <- wait ();
    t

  (* Wait for [ts] to exit (the caller has asked them to, e.g. with a
     [shutdown] request); SIGTERM whatever is left after [grace] seconds,
     SIGKILL after twice that. *)
  let wait_all ?(grace = 10.) ts =
    let deadline = now () +. grace in
    let pending () = List.filter (fun t -> not (exited t)) ts in
    while pending () <> [] && now () < deadline do
      Unix.sleepf 0.002
    done;
    List.iter (fun t -> try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()) (pending ());
    let deadline = now () +. grace in
    while pending () <> [] && now () < deadline do
      Unix.sleepf 0.005
    done;
    List.iter (fun t -> try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()) (pending ());
    List.iter reap ts
end
