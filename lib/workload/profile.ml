module Cluster = Rats_platform.Cluster
module Suite = Rats_daggen.Suite
module Shape = Rats_daggen.Shape
module Rats = Rats_core.Rats

type t = { name : string; seed : int; n_jobs : int; tenants : Tenant.t list }

let validate t =
  if t.n_jobs < 1 then invalid_arg "Profile: n_jobs < 1";
  if t.tenants = [] then invalid_arg "Profile: no tenants";
  let names = List.map (fun (tn : Tenant.t) -> tn.Tenant.name) t.tenants in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Profile: duplicate tenant names";
  List.iter Tenant.validate t.tenants

let jobs_per_tenant t =
  let n_tenants = List.length t.tenants in
  Array.init n_tenants (fun i ->
      (t.n_jobs / n_tenants) + if i < t.n_jobs mod n_tenants then 1 else 0)

(* Small configurations only, in the historical selftest pool order:
   byte-identical traces for the poisson preset depend on it. *)
let service_mix : App.mix =
  [|
    ( 1,
      App.Suite_spec
        (Suite.Layered
           {
             n_tasks = 25;
             shape = Shape.make ~width:0.5 ~regularity:0.8 ~density:0.2 ();
           }) );
    ( 1,
      App.Suite_spec
        (Suite.Layered
           {
             n_tasks = 25;
             shape = Shape.make ~width:0.2 ~regularity:0.2 ~density:0.8 ();
           }) );
    ( 1,
      App.Suite_spec
        (Suite.Irregular
           {
             n_tasks = 25;
             shape =
               Shape.make ~width:0.5 ~regularity:0.2 ~density:0.2 ~jump:2 ();
           }) );
    (1, App.Suite_spec (Suite.Fft { k = 2 }));
    (1, App.Suite_spec Suite.Strassen);
  |]

let mi = 1024. *. 1024.

let pipeline_mix : App.mix =
  [|
    ( 1,
      App.Pipeline
        { App.stages = 5; data_elements = 4. *. mi; flop = 4e9; alpha = 0.05 }
    );
    ( 1,
      App.Pipeline
        { App.stages = 8; data_elements = 8. *. mi; flop = 6e9; alpha = 0.05 }
    );
    ( 1,
      App.Pipeline
        { App.stages = 12; data_elements = 16. *. mi; flop = 8e9; alpha = 0.1 }
    );
  |]

type preset_params = {
  p_jobs : int;
  p_tenants : int;
  p_rate : float;
  p_seed : int;
}

let default_params = { p_jobs = 120; p_tenants = 4; p_rate = 0.05; p_seed = 42 }

let presets = [ "poisson"; "bursty"; "diurnal"; "pipeline"; "mixed" ]

(* Per-tenant arrival process of each non-poisson preset, parameterised by the
   tenant's even share of the aggregate rate. Burst and diurnal shapes keep
   the same long-run average rate as the poisson preset, so arm comparisons
   across presets see the same offered load, differently clumped. *)
let bursty_arrival per_rate =
  (* On one fifth of the time at 5x the average rate: flash crowds. *)
  Arrival.Bursty
    {
      rate_on = 5. *. per_rate;
      rate_off = 0.;
      mean_on = 40. /. per_rate *. 0.2;
      mean_off = 40. /. per_rate *. 0.8;
    }

let diurnal_arrival per_rate =
  Arrival.Diurnal
    { base = per_rate; amplitude = 0.9; period = 400. /. per_rate }

let build_preset ~cluster ?(strategy = Rats.Delta Rats.naive_delta) name
    params =
  (* Shares uniform between a quarter of the platform and all of it. *)
  let n = Cluster.n_procs cluster in
  let share = Tenant.Uniform { lo = max 1 (n / 4); hi = n } in
  let per_rate = params.p_rate /. float_of_int params.p_tenants in
  let tenant i arrival mix =
    {
      Tenant.name = Printf.sprintf "tenant-%d" i;
      arrival;
      mix;
      samples = 3;
      share;
      strategy;
    }
  in
  let tenants =
    match name with
    | "poisson" ->
        List.init params.p_tenants (fun i ->
            tenant i (Arrival.Poisson { rate = per_rate }) service_mix)
    | "bursty" ->
        List.init params.p_tenants (fun i ->
            tenant i (bursty_arrival per_rate) service_mix)
    | "diurnal" ->
        List.init params.p_tenants (fun i ->
            tenant i (diurnal_arrival per_rate) service_mix)
    | "pipeline" ->
        List.init params.p_tenants (fun i ->
            tenant i (Arrival.Poisson { rate = per_rate }) pipeline_mix)
    | "mixed" ->
        (* Tenant classes cycle: open-loop, flash-crowd, day/night, pipeline. *)
        List.init params.p_tenants (fun i ->
            match i mod 4 with
            | 0 -> tenant i (Arrival.Poisson { rate = per_rate }) service_mix
            | 1 -> tenant i (bursty_arrival per_rate) service_mix
            | 2 -> tenant i (diurnal_arrival per_rate) service_mix
            | _ ->
                tenant i (Arrival.Poisson { rate = per_rate }) pipeline_mix)
    | other -> invalid_arg ("Profile: unknown preset " ^ other)
  in
  { name; seed = params.p_seed; n_jobs = params.p_jobs; tenants }

let service ~cluster ~n_jobs ~n_tenants ~rate ~seed ~strategy () =
  if n_tenants < 1 then invalid_arg "Profile.service: n_tenants < 1";
  if rate <= 0. then invalid_arg "Profile.service: rate <= 0";
  build_preset ~cluster ~strategy "poisson"
    { p_jobs = n_jobs; p_tenants = n_tenants; p_rate = rate; p_seed = seed }

let parse_params base kvs =
  List.fold_left
    (fun acc kv ->
      match acc with
      | Error _ -> acc
      | Ok params -> (
          match String.split_on_char '=' kv with
          | [ "jobs"; v ] -> (
              match int_of_string_opt v with
              | Some j when j >= 1 -> Ok { params with p_jobs = j }
              | _ -> Error (Printf.sprintf "bad jobs value %S" v))
          | [ "tenants"; v ] -> (
              match int_of_string_opt v with
              | Some t when t >= 1 -> Ok { params with p_tenants = t }
              | _ -> Error (Printf.sprintf "bad tenants value %S" v))
          | [ "rate"; v ] -> (
              match float_of_string_opt v with
              | Some r when r > 0. -> Ok { params with p_rate = r }
              | _ -> Error (Printf.sprintf "bad rate value %S" v))
          | [ "seed"; v ] -> (
              match int_of_string_opt v with
              | Some s -> Ok { params with p_seed = s }
              | None -> Error (Printf.sprintf "bad seed value %S" v))
          | _ -> Error (Printf.sprintf "bad profile option %S" kv)))
    (Ok base) kvs

let of_string ~cluster ?seed spec =
  let name, kvs =
    match String.index_opt spec ':' with
    | None -> (spec, [])
    | Some i ->
        ( String.sub spec 0 i,
          String.split_on_char ','
            (String.sub spec (i + 1) (String.length spec - i - 1)) )
  in
  if not (List.mem name presets) then
    Error
      (Printf.sprintf "unknown profile %S (expected one of: %s)" name
         (String.concat ", " presets))
  else
    match parse_params default_params kvs with
    | Error e -> Error e
    | Ok params ->
        let params =
          match seed with
          | Some s -> { params with p_seed = s }
          | None -> params
        in
        Ok (build_preset ~cluster name params)
