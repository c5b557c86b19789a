(* Small helpers shared by the benchmark modules: clocks, files,
   percentiles, GC counters and the host-speed kernel. *)

(* Monotonic, nanosecond resolution: live checks take tens of µs. *)
let now () = Int64.to_float (Xic_obs.Obs.Clock.now_ns ()) /. 1e9

let ms_since t0 = (now () -. t0) *. 1000.0

let us_since t0 = (now () -. t0) *. 1e6

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () -> In_channel.input_all ic

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc contents

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ when Sys.file_exists p -> ()
    end
  in
  go path

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile (sorted_of_list l) 50.0

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sum l = List.fold_left ( +. ) 0.0 l

(* The highest of the usual percentiles that still has at least ten
   samples beyond it, so a tail figure is never one or two outliers. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A fixed amount of hashing, allocation and sorting that shares no code
   with the program: how fast the host runs right now. *)
let calibration_kernel () =
  let n = 5_000 in
  let h = Hashtbl.create 4096 in
  for i = 0 to n - 1 do Hashtbl.replace h (string_of_int (i * 7919)) i done;
  let s = ref 0 in
  for i = 0 to n - 1 do s := !s + Hashtbl.find h (string_of_int (i * 7919)) done;
  let a = Array.init n (fun i -> float_of_int (i * 7919 mod 5_003)) in
  Array.sort Float.compare a;
  let l = List.init n (fun i -> (i, string_of_int i)) in
  ignore (Sys.opaque_identity (List.rev_map fst l));
  !s

(* One timing of the kernel, from an empty minor heap so the samples
   are comparable. *)
let calibrate () =
  Gc.minor ();
  let t0 = now () in
  ignore (Sys.opaque_identity (calibration_kernel ()));
  ms_since t0
