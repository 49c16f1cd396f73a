(** Workload profiles: who submits what, how fast, under which seed.

    A profile is a named set of {!Tenant}s plus a total job budget; the
    trace compiler ({!Trace.compile}) splits the budget round-robin
    across tenants (tenant [i] of [T] gets [n/T] jobs, plus one of the
    first [n mod T] remainders — the historical selftest split).

    {2 Profile grammar}

    [of_string] accepts [NAME\[:key=value{,key=value}\]] where [NAME] is
    one of {!presets} and the optional keys override the preset's
    defaults:

    - [jobs=N] — total jobs across tenants (default 120);
    - [tenants=K] — tenant count (default 4);
    - [rate=R] — aggregate arrival rate in jobs per simulated second,
      split evenly across tenants (default 0.05);
    - [seed=S] — trace seed (default 42).

    Example: ["bursty:jobs=240,tenants=6,seed=7"].

    {2 Presets}

    - [poisson] — every tenant an independent Poisson source over the
      small-configuration service mix: the classic open-loop load (and
      the exact trace of the historical [ratsd --selftest] driver).
    - [bursty] — on/off MMPP tenants: flash crowds against a quiet
      background.
    - [diurnal] — sinusoidal rate curve tenants (day/night).
    - [pipeline] — Poisson tenants submitting pipeline-shaped chains
      only (the Benoit–Rehn-Sonigo–Robert tenant class).
    - [mixed] — tenant classes cycle through poisson / bursty / diurnal
      service-mix tenants and a pipeline tenant: the heterogeneous
      multi-tenant sweep. *)

type t = {
  name : string;
  seed : int;
  n_jobs : int;  (** Total across tenants. *)
  tenants : Tenant.t list;
}

val validate : t -> unit
(** Raises [Invalid_argument] on a non-positive job budget, no tenants,
    duplicate tenant names or an invalid tenant. *)

val jobs_per_tenant : t -> int array
(** The round-robin split of [n_jobs] over the tenants, in order. *)

val service_mix : App.mix
(** The historical service pool: five small suite configurations
    (two layered, one irregular, FFT k=2, Strassen), uniform weights. *)

val pipeline_mix : App.mix
(** Three pipeline chains of 5/8/12 stages over 4/8/16 Mi-element
    datasets, uniform weights. *)

val service :
  cluster:Rats_platform.Cluster.t ->
  n_jobs:int ->
  n_tenants:int ->
  rate:float ->
  seed:int ->
  strategy:Rats_core.Rats.strategy ->
  unit ->
  t
(** The [poisson] preset with an explicit strategy — the trace of
    [ratsd --selftest] and [rats_client --op load]: [n_tenants] Poisson
    tenants named ["tenant-<i>"] of rate [rate /. n_tenants] each,
    {!service_mix}, 3 samples, shares uniform between a quarter of the
    platform and all of it. Raises [Invalid_argument] on fewer than one
    tenant or a non-positive rate. *)

val presets : string list
(** Preset names accepted by {!of_string}, in documentation order. *)

val of_string :
  cluster:Rats_platform.Cluster.t ->
  ?seed:int ->
  string ->
  (t, string) result
(** Parses the profile grammar above. Share bounds are derived from the
    cluster (uniform between a quarter of the platform and all of it);
    the baked strategy is the naive delta. [?seed] overrides any seed
    from the string (the CLI's [--seed] flag). *)
