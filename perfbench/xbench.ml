(* The benchmark program.  Normally started by perfbench/run.py, which builds
   it and xicheck first:

     xbench.exe --workload guard_1mb|read_256kb|coldstart_1mb
       --seed N --seconds S --trace 0|1 --xicheck PATH --work DIR
       --out DIR [--smoke]

   With --trace 0 it runs the workload end to end against xicheck and
   prints the end-to-end metrics; with --trace 1 it runs the traced
   in-process pass and prints the per-layer metrics, writing a Chrome
   trace and a per-op table to the --out directory.  The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

let workloads = [ "guard_1mb"; "read_256kb"; "coldstart_1mb" ]

(* Per-layer units, read off the metric names. *)
let unit_of name =
  let has sub =
    let n = String.length name and m = String.length sub in
    let rec at i = i + m <= n && (String.sub name i m = sub || at (i + 1)) in
    at 0
  in
  if has "_us" then "us"
  else if has "_ms" then "ms"
  else if has "bytes" then "bytes"
  else if has "alloc_words" then "words"
  else if has "_per_guard" then "count/guard"
  else "count"

let json_line ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed (String.concat ", " fields)

(* Non-finite figures cannot be written as JSON numbers; they mean a
   class of requests never ran, which is a failed run. *)
let finite metrics =
  List.partition (fun (_, v, _) -> Float.is_finite v) metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let xicheck = ref "" and work = ref "" and out = ref "" and smoke = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--xicheck", Arg.Set_string xicheck, "PATH");
      ("--work", Arg.Set_string work, "DIR");
      ("--out", Arg.Set_string out, "DIR");
      ("--smoke", Arg.Set smoke, " tiny documents") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xbench.exe --workload NAME --seed N --seconds S --trace 0|1 --xicheck PATH --work DIR --out DIR";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !xicheck = "" || !work = "" || !out = "" then begin
    prerr_endline "--xicheck, --work and --out are required";
    exit 2
  end;
  Util.mkdir_p !work;
  Util.mkdir_p !out;
  (* a server that died must show up as failed requests, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.cleanup;
  let cfg =
    { Workloads.xicheck = !xicheck; seed = !seed; seconds = !seconds; dir = !work;
      smoke = !smoke }
  in
  if !trace = 0 then begin
    let r =
      match !workload with
      | "guard_1mb" -> Workloads.guard_workload cfg
      | "read_256kb" -> Workloads.read_workload cfg
      | _ -> Workloads.coldstart_workload cfg
    in
    Printf.printf "# %s seed %d: %d dataset bytes, %d requests attempted, %d failed\n"
      !workload !seed r.Workloads.dataset_bytes r.Workloads.attempted r.Workloads.failed;
    List.iter (Printf.printf "# failure: %s\n") r.Workloads.failures;
    Printf.printf "failed_ops_ratio %.6f ratio\n"
      (float_of_int r.Workloads.failed /. float_of_int (max 1 r.Workloads.attempted));
    List.iter (fun (n, v, u) -> Printf.printf "%s %.4f %s\n" n v u) r.Workloads.details;
    let good, bad = finite r.Workloads.metrics in
    List.iter (fun (n, _, _) -> Printf.printf "# failure: %s has no value\n" n) bad;
    Printf.printf "{\"dataset_bytes\": %d}\n" r.Workloads.dataset_bytes;
    print_endline
      (json_line ~attempted:r.Workloads.attempted
         ~failed:(r.Workloads.failed + List.length bad)
         good)
  end
  else begin
    let o =
      Layers.run ~xicheck:!xicheck ~workload:!workload ~seed:!seed ~smoke:!smoke ~dir:!work
    in
    let trace_path = Filename.concat !out ("trace_" ^ !workload ^ ".json") in
    let table_path = Filename.concat !out ("layers_" ^ !workload ^ ".txt") in
    Util.write_file trace_path o.Layers.trace_json;
    Util.write_file table_path (o.Layers.table ^ o.Layers.fig1);
    print_string o.Layers.table;
    print_string o.Layers.fig1;
    Printf.printf "# wrote %s and %s\n" trace_path table_path;
    let metrics = List.map (fun (n, v) -> (n, v, unit_of n)) o.Layers.metrics in
    let good, bad = finite metrics in
    List.iter (fun (n, _, _) -> Printf.printf "# failure: %s has no value\n" n) bad;
    Printf.printf "{\"dataset_bytes\": %d}\n" o.Layers.dataset_bytes;
    print_endline (json_line ~attempted:o.Layers.requests ~failed:(List.length bad) good)
  end
