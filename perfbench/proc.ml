(* xicheck child processes and the socket client.

   Children are started with [Unix.create_process] only: the benchmark
   process may have spawned domains (snapshot loading does, on hosts
   with more than one core), and [Unix.fork] raises after that.  Every
   child is recorded so [cleanup] can kill and reap it however the run
   ends. *)

module P = Xic_server.Protocol

let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let spawn ?stdout_path prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out =
    match stdout_path with
    | Some p -> Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> devnull
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        if out != devnull then Unix.close out;
        Unix.close devnull)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) devnull out out)
  in
  live := pid :: !live;
  pid

let rec waitpid_blocking pid =
  match Unix.waitpid [] pid with
  | _, st ->
    forget pid;
    st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_blocking pid

(* Wait up to [timeout] seconds, then kill.  [None] when it was killed. *)
let wait_or_kill ?(timeout = 20.0) pid =
  let deadline = Util.now () +. timeout in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Util.now () < deadline ->
      Unix.sleepf 0.002;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_blocking pid);
      None
    | _, st ->
      forget pid;
      Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Run a one-shot command to completion; (exit status, stdout). *)
let run ~out prog args =
  let pid = spawn ~stdout_path:out prog args in
  let st = waitpid_blocking pid in
  (st, try Util.read_file out with Sys_error _ -> "")

(* Peak resident set of a live process, from /proc (MB). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match Util.read_file path with
  | exception Sys_error _ -> nan
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> float_of_string kb /. 1024.0
           | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' status)

(* ------------------------------------------------------------------ *)
(* Server runs                                                         *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; fd : Unix.file_descr; sock : string }

let request_timeout = 60.0

(* Connect once the socket exists; gives up after [timeout] seconds or
   when the server exits first. *)
let connect ?(timeout = 60.0) pid sock =
  let deadline = Util.now () +. timeout in
  let rec go () =
    if Util.now () > deadline then failwith "server did not come up"
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p = pid ->
        forget pid;
        failwith "server exited before listening"
      | _ ->
        if not (Sys.file_exists sock) then begin
          Unix.sleepf 0.001;
          go ()
        end
        else
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO request_timeout;
            fd
          | exception Unix.Unix_error _ ->
            Unix.close fd;
            Unix.sleepf 0.001;
            go ()
  in
  go ()

let start ~xicheck ~sock args =
  Util.remove_quietly sock;
  let pid = spawn xicheck ("serve" :: "--socket" :: sock :: args) in
  match connect pid sock with
  | fd -> { pid; fd; sock }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_or_kill ~timeout:5.0 pid);
    raise e

(* One round trip: request bytes out, response decoded. *)
let call srv req = P.request srv.fd req

let op name fields = P.Obj (("op", P.String name) :: fields)

let shutdown srv =
  (try ignore (call srv (op "shutdown" [])) with _ -> ());
  (try Unix.close srv.fd with Unix.Unix_error _ -> ());
  let clean =
    match wait_or_kill srv.pid with Some (Unix.WEXITED 0) -> true | _ -> false
  in
  Util.remove_quietly srv.sock;
  clean
