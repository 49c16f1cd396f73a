module Json = Rats_obs.Json

let catalog ~trace = if trace then Catalog.per_layer else Catalog.end_to_end

let values ~trace (o : Workloads.outcome) =
  if trace then o.Workloads.per_layer else o.Workloads.end_to_end

let failed_ratio (o : Workloads.outcome) =
  float_of_int o.Workloads.failed /. float_of_int (max 1 o.Workloads.attempted)

let lines ~trace (o : Workloads.outcome) =
  let vals = values ~trace o in
  let row name v unit_ = Printf.sprintf "%-30s %16.6g %s" name v unit_ in
  List.map (fun n -> "# " ^ n) o.Workloads.notes
  @ row "failed_ratio" (failed_ratio o) "ratio"
    :: List.map
         (fun (m : Catalog.metric) ->
           row m.Catalog.name (List.assoc m.Catalog.name vals) m.Catalog.unit_)
         (catalog ~trace)

let result ~trace (o : Workloads.outcome) =
  let vals = values ~trace o in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) vals in
  let metric (m : Catalog.metric) =
    let v = List.assoc m.Catalog.name vals in
    ( m.Catalog.name,
      Json.Obj
        [
          ("value", Json.Num (if Float.is_finite v then v else 0.));
          ("unit", Json.Str m.Catalog.unit_);
        ] )
  in
  Json.Obj
    [
      ("correct", Json.Bool (o.Workloads.failed = 0 && finite));
      ("attempted", Json.Num (float_of_int o.Workloads.attempted));
      ("failed", Json.Num (float_of_int o.Workloads.failed));
      ("metrics", Json.Obj (List.map metric (catalog ~trace)));
    ]
