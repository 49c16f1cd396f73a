(* The repository's benchmark: drives the RATS layers from outside and
   prints every metric by name with its unit, then one JSON result line.

     main.exe --workload sweep_grillon --seed 0 --seconds 20 --trace 0

   See perfbench/README.md for the workloads and the metric map. *)

open Perfbench
module Json = Rats_obs.Json

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat " | " Catalog.workloads );
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (>= 1)");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics (0), or per-layer metrics and a span file in \
         perfbench/out/ (1)" );
    ]
  in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align specs) (fun a -> fail ("unexpected " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  if not (List.mem !workload Catalog.workloads) then
    fail ("unknown workload " ^ !workload);
  if !seed < 0 then fail "--seed must be >= 0";
  if !seconds < 1 then fail "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let probe, o =
    Workloads.run ~workload:!workload ~seed:!seed
      ~seconds:(float_of_int !seconds) ~trace:traced ()
  in
  if traced then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/%s-seed%d.trace.json" !workload !seed in
    Probe.write probe path;
    Printf.printf "# spans: %s\n" path
  end;
  List.iter print_endline (Report.lines ~trace:traced o);
  print_endline (Json.to_string (Report.result ~trace:traced o))
