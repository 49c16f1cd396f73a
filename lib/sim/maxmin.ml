module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type flow = { links : int array; rate_cap : float }

(* A frozen-rate margin below [eps_of cap] counts as saturated; shared by the
   reference solver and the incremental one so both freeze identically. *)
let[@inline] eps_of cap = 1e-9 *. Float.max 1. cap

let solve ~n_links ~capacity flows =
  let n = Array.length flows in
  let rates = Array.make n 0. in
  let frozen = Array.make n false in
  let rem = Array.init n_links capacity in
  let users = Array.make n_links 0 in
  (* Validate and set up link user counts. *)
  Array.iteri
    (fun i f ->
      if f.rate_cap <= 0. then invalid_arg "Maxmin.solve: non-positive cap";
      Array.iter
        (fun l ->
          if l < 0 || l >= n_links then invalid_arg "Maxmin.solve: bad link";
          if rem.(l) <= 0. then invalid_arg "Maxmin.solve: non-positive capacity";
          users.(l) <- users.(l) + 1)
        f.links;
      (* Unconstrained flows saturate immediately. *)
      if Array.length f.links = 0 && f.rate_cap = infinity then begin
        rates.(i) <- infinity;
        frozen.(i) <- true
      end)
    flows;
  let active =
    ref (Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 frozen)
  in
  let rounds = ref 0 in
  while !active > 0 do
    incr rounds;
    (* Water level increment: the smallest margin before a link saturates or
       a flow reaches its cap. *)
    let level = ref infinity in
    for l = 0 to n_links - 1 do
      if users.(l) > 0 then
        level := Float.min !level (rem.(l) /. float_of_int users.(l))
    done;
    for i = 0 to n - 1 do
      if not frozen.(i) then
        level := Float.min !level (flows.(i).rate_cap -. rates.(i))
    done;
    if !level = infinity then
      (* Only capless, linkless... cannot happen: such flows were frozen. *)
      invalid_arg "Maxmin.solve: unbounded flow";
    let level = !level in
    for i = 0 to n - 1 do
      if not frozen.(i) then rates.(i) <- rates.(i) +. level
    done;
    for l = 0 to n_links - 1 do
      if users.(l) > 0 then rem.(l) <- rem.(l) -. (level *. float_of_int users.(l))
    done;
    (* Freeze flows on saturated links or at their cap. *)
    for i = 0 to n - 1 do
      if not frozen.(i) then begin
        let f = flows.(i) in
        let saturated_link =
          Array.exists (fun l -> rem.(l) <= eps_of (capacity l)) f.links
        in
        let at_cap =
          f.rate_cap < infinity
          && f.rate_cap -. rates.(i) <= eps_of f.rate_cap
        in
        if saturated_link || at_cap then begin
          frozen.(i) <- true;
          decr active;
          Array.iter (fun l -> users.(l) <- users.(l) - 1) f.links
        end
      end
    done
  done;
  Metrics.incr Instr.maxmin_solves;
  if !rounds > 0 then Metrics.add Instr.maxmin_iterations !rounds;
  rates

let utilization ~n_links flows ~rates l =
  if l < 0 || l >= n_links then invalid_arg "Maxmin.utilization: bad link";
  let acc = ref 0. in
  Array.iteri
    (fun i f -> if Array.exists (fun x -> x = l) f.links then acc := !acc +. rates.(i))
    flows;
  !acc

module Incremental = struct
  type handle = int

  (* The rate vector of a flow set decomposes over the connected components
     of the flow-link graph: a component's rates depend only on its own
     flows and links. [refresh] re-solves every component after any change;
     within a component the water-fill runs on the observation that every
     unfrozen flow carries the same accumulated rate, so one cumulative
     level plus per-cap-class counts replaces the per-flow scans of the
     reference solver: a round costs O(component links) instead of
     O(flows + n_links), and every link freeze is O(flow degree). The
     arithmetic per component is kept operation-for-operation identical to
     [solve] run on that component alone (min over the same margins, the
     same subtractions on the same values), and neither the order of a
     link's adjacency slice nor the order in which flows freeze within a
     round changes any value, so the result is a pure function of the alive
     flow set, however it was reached. Against [solve] run on the *whole*
     flow set the rates agree only up to rounding: the reference
     accumulates globally-minimal levels across components, a different
     float summation (see docs/ALGORITHMS.md).

     The hot path allocates nothing after warm-up: all state lives in flat
     arrays that only ever grow, and the loops below are closure-free so
     the float accumulators stay unboxed. *)

  type t = {
    n_links : int;
    link_cap : float array;
    (* Flow store: one slot per flow, reused through a free stack. *)
    mutable f_links : int array array;  (* [||] after free *)
    mutable f_pos : int array array;  (* f_pos.(i).(a): slot of i in adj.(f_links.(i).(a)) *)
    mutable f_cap : float array;
    mutable f_rate : float array;
    mutable f_alive : bool array;
    mutable high : int;  (* slots ever handed out: ids < high *)
    mutable free : int array;
    mutable n_free : int;
    mutable n_alive : int;
    mutable changed : bool;  (* a linked flow came or went since [refresh] *)
    (* link -> alive flows adjacency, maintained by add/remove: the flows
       crossing link l are adj.(l).(0 .. adj_len.(l) - 1), in no order. *)
    adj : int array array;
    adj_len : int array;
    (* Traversal stamps (per flow slot / per link), valid when = stamp. *)
    mutable flow_mark : int array;
    link_mark : int array;
    mutable stamp : int;
    (* Per-component solve scratch. *)
    rem : float array;  (* per link *)
    users : int array;  (* per link *)
    mutable frozen : int array;  (* per flow slot, stamp-valid *)
    mutable class_of : int array;  (* per flow slot, cap-class index *)
    mutable comp_flows : int array;
    mutable comp_links : int array;
    mutable comp_nf : int;
    mutable comp_nl : int;
    mutable caps : float array;  (* distinct finite caps, ascending *)
    mutable cap_count : int array;  (* unfrozen flows per class *)
    mutable n_caps : int;
    (* Plain observability counters (an instance lives on one domain),
       published as registry deltas by [publish]. *)
    mutable refreshes : int;
    mutable component_solves : int;
    mutable rounds : int;
    mutable solved_flows : int;
    mutable pub_refreshes : int;
    mutable pub_comp : int;
    mutable pub_rounds : int;
    mutable pub_solved : int;
  }

  let create ~n_links ~capacity () =
    if n_links < 0 then invalid_arg "Maxmin.Incremental.create: n_links < 0";
    {
      n_links;
      link_cap = Array.init n_links capacity;
      f_links = Array.make 16 [||];
      f_pos = Array.make 16 [||];
      f_cap = Array.make 16 0.;
      f_rate = Array.make 16 0.;
      f_alive = Array.make 16 false;
      high = 0;
      free = Array.make 16 0;
      n_free = 0;
      n_alive = 0;
      changed = false;
      adj = Array.make n_links [||];
      adj_len = Array.make n_links 0;
      flow_mark = Array.make 16 0;
      link_mark = Array.make n_links 0;
      stamp = 0;
      rem = Array.make n_links 0.;
      users = Array.make n_links 0;
      frozen = Array.make 16 0;
      class_of = Array.make 16 (-1);
      comp_flows = Array.make 16 0;
      comp_links = Array.make 16 0;
      comp_nf = 0;
      comp_nl = 0;
      caps = Array.make 8 0.;
      cap_count = Array.make 8 0;
      n_caps = 0;
      refreshes = 0;
      component_solves = 0;
      rounds = 0;
      solved_flows = 0;
      pub_refreshes = 0;
      pub_comp = 0;
      pub_rounds = 0;
      pub_solved = 0;
    }

  let n_flows t = t.n_alive

  (* [a] itself when it holds [len] elements, else a copy at least twice as
     long padded with [init]. *)
  let grow a len init =
    let n = Array.length a in
    if len <= n then a
    else begin
      let b = Array.make (max len (2 * n)) init in
      Array.blit a 0 b 0 n;
      b
    end

  let grow_slots t len =
    t.f_links <- grow t.f_links len [||];
    t.f_pos <- grow t.f_pos len [||];
    t.f_cap <- grow t.f_cap len 0.;
    t.f_rate <- grow t.f_rate len 0.;
    t.f_alive <- grow t.f_alive len false;
    t.free <- grow t.free len 0;
    t.flow_mark <- grow t.flow_mark len 0;
    t.frozen <- grow t.frozen len 0;
    t.class_of <- grow t.class_of len (-1)

  let add t ~links ~rate_cap =
    if rate_cap <= 0. then invalid_arg "Maxmin.Incremental.add: non-positive cap";
    let deg = Array.length links in
    for a = 0 to deg - 1 do
      let l = links.(a) in
      if l < 0 || l >= t.n_links then invalid_arg "Maxmin.Incremental.add: bad link";
      if t.link_cap.(l) <= 0. then
        invalid_arg "Maxmin.Incremental.add: non-positive capacity"
    done;
    let i =
      if t.n_free > 0 then begin
        t.n_free <- t.n_free - 1;
        t.free.(t.n_free)
      end
      else begin
        let i = t.high in
        grow_slots t (i + 1);
        t.high <- i + 1;
        i
      end
    in
    t.f_links.(i) <- links;
    t.f_cap.(i) <- rate_cap;
    t.f_alive.(i) <- true;
    t.n_alive <- t.n_alive + 1;
    if deg = 0 then
      (* No link interaction: the flow's fair rate is its own cap. *)
      t.f_rate.(i) <- rate_cap
    else begin
      t.f_rate.(i) <- 0.;
      t.changed <- true;
      (* Slots are reused, so after warm-up the position array fits. *)
      if Array.length t.f_pos.(i) < deg then t.f_pos.(i) <- Array.make deg 0;
      let pos = t.f_pos.(i) in
      for a = 0 to deg - 1 do
        let l = links.(a) in
        let n = t.adj_len.(l) in
        if n = Array.length t.adj.(l) then t.adj.(l) <- grow t.adj.(l) (n + 1) 0;
        t.adj.(l).(n) <- i;
        t.adj_len.(l) <- n + 1;
        pos.(a) <- n
      done
    end;
    i

  (* Swap-remove occurrence [a] of flow [i] from its link's slice. *)
  let unlink t i a =
    let l = t.f_links.(i).(a) in
    let p = t.f_pos.(i).(a) in
    let last = t.adj_len.(l) - 1 in
    t.adj_len.(l) <- last;
    if p < last then begin
      let slice = t.adj.(l) in
      let j = slice.(last) in
      slice.(p) <- j;
      let links = t.f_links.(j) and pos = t.f_pos.(j) in
      for b = 0 to Array.length links - 1 do
        if links.(b) = l && pos.(b) = last then pos.(b) <- p
      done
    end

  let remove t i =
    if i < 0 || i >= t.high || not t.f_alive.(i) then
      invalid_arg "Maxmin.Incremental.remove: dead handle";
    t.f_alive.(i) <- false;
    t.n_alive <- t.n_alive - 1;
    let deg = Array.length t.f_links.(i) in
    if deg > 0 then begin
      t.changed <- true;
      for a = 0 to deg - 1 do
        unlink t i a
      done
    end;
    t.f_links.(i) <- [||];
    t.free.(t.n_free) <- i;
    t.n_free <- t.n_free + 1

  let[@inline] rate t i =
    if i < 0 || i >= t.high then invalid_arg "Maxmin.Incremental.rate: bad handle";
    t.f_rate.(i)

  (* --- one component ----------------------------------------------------- *)

  let push_flow t i =
    t.flow_mark.(i) <- t.stamp;
    t.comp_flows <- grow t.comp_flows (t.comp_nf + 1) 0;
    t.comp_flows.(t.comp_nf) <- i;
    t.comp_nf <- t.comp_nf + 1

  let push_link t l =
    t.link_mark.(l) <- t.stamp;
    t.comp_links <- grow t.comp_links (t.comp_nl + 1) 0;
    t.comp_links.(t.comp_nl) <- l;
    t.comp_nl <- t.comp_nl + 1

  (* Collect the connected component containing flow [seed] into
     [comp_flows]/[comp_links] (stamp-marking visited flows and links). *)
  let collect_component t seed =
    t.comp_nf <- 0;
    t.comp_nl <- 0;
    push_flow t seed;
    let head = ref 0 in
    while !head < t.comp_nf do
      let links = t.f_links.(t.comp_flows.(!head)) in
      incr head;
      for a = 0 to Array.length links - 1 do
        let l = links.(a) in
        if t.link_mark.(l) <> t.stamp then begin
          push_link t l;
          let slice = t.adj.(l) in
          for k = 0 to t.adj_len.(l) - 1 do
            let j = slice.(k) in
            if t.flow_mark.(j) <> t.stamp then push_flow t j
          done
        end
      done
    done

  (* Index of flow [i]'s cap in the component's ascending class list,
     inserting a new class when the cap is new (components see few
     distinct caps: routes of equal length share one). *)
  let class_index t i =
    let cap = t.f_cap.(i) in
    let k = ref 0 in
    while !k < t.n_caps && t.caps.(!k) < cap do
      incr k
    done;
    let k = !k in
    if k < t.n_caps && t.caps.(k) = cap then k
    else begin
      t.caps <- grow t.caps (t.n_caps + 1) 0.;
      t.cap_count <- grow t.cap_count (t.n_caps + 1) 0;
      for j = t.n_caps downto k + 1 do
        t.caps.(j) <- t.caps.(j - 1);
        t.cap_count.(j) <- t.cap_count.(j - 1)
      done;
      t.caps.(k) <- cap;
      t.cap_count.(k) <- 0;
      t.n_caps <- t.n_caps + 1;
      (* Shift the class index of already-registered flows (later ones are
         overwritten when registered). *)
      for m = 0 to t.comp_nf - 1 do
        let j = t.comp_flows.(m) in
        if t.class_of.(j) >= k then t.class_of.(j) <- t.class_of.(j) + 1
      done;
      k
    end

  (* Freeze flow [i] (its rate already written): release its links and its
     cap-class slot. *)
  let freeze t i =
    t.frozen.(i) <- t.stamp;
    let links = t.f_links.(i) in
    for a = 0 to Array.length links - 1 do
      let l = links.(a) in
      t.users.(l) <- t.users.(l) - 1
    done;
    let k = t.class_of.(i) in
    if k >= 0 then t.cap_count.(k) <- t.cap_count.(k) - 1

  (* Water-fill the collected component. Arithmetic is identical to [solve]
     run on the component's flows alone: every unfrozen flow has
     accumulated exactly [cum], so the reference's per-flow margin min
     equals [smallest unfrozen cap -. cum] (float subtraction is monotonic),
     and the remaining-capacity updates perform the same operations on the
     same values. *)
  let solve_component t =
    let nf = t.comp_nf and nl = t.comp_nl in
    t.component_solves <- t.component_solves + 1;
    t.solved_flows <- t.solved_flows + nf;
    for k = 0 to nl - 1 do
      let l = t.comp_links.(k) in
      t.rem.(l) <- t.link_cap.(l);
      t.users.(l) <- 0
    done;
    t.n_caps <- 0;
    for m = 0 to nf - 1 do
      let i = t.comp_flows.(m) in
      t.frozen.(i) <- 0;
      (* not frozen at this stamp *)
      let links = t.f_links.(i) in
      for a = 0 to Array.length links - 1 do
        let l = links.(a) in
        t.users.(l) <- t.users.(l) + 1
      done;
      if t.f_cap.(i) < infinity then begin
        let k = class_index t i in
        t.class_of.(i) <- k;
        t.cap_count.(k) <- t.cap_count.(k) + 1
      end
      else t.class_of.(i) <- -1
    done;
    let active = ref nf in
    let cum = ref 0. in
    let cap_ptr = ref 0 in
    while !active > 0 do
      t.rounds <- t.rounds + 1;
      let level = ref infinity in
      for k = 0 to nl - 1 do
        let l = t.comp_links.(k) in
        if t.users.(l) > 0 then
          level := Float.min !level (t.rem.(l) /. float_of_int t.users.(l))
      done;
      while !cap_ptr < t.n_caps && t.cap_count.(!cap_ptr) = 0 do
        incr cap_ptr
      done;
      if !cap_ptr < t.n_caps then
        level := Float.min !level (t.caps.(!cap_ptr) -. !cum);
      if !level = infinity then
        invalid_arg "Maxmin.Incremental: unbounded flow";
      let level = !level in
      cum := !cum +. level;
      for k = 0 to nl - 1 do
        let l = t.comp_links.(k) in
        if t.users.(l) > 0 then
          t.rem.(l) <- t.rem.(l) -. (level *. float_of_int t.users.(l))
      done;
      (* Freeze flows on saturated links... *)
      for k = 0 to nl - 1 do
        let l = t.comp_links.(k) in
        if t.users.(l) > 0 && t.rem.(l) <= eps_of t.link_cap.(l) then begin
          let slice = t.adj.(l) in
          for a = 0 to t.adj_len.(l) - 1 do
            let i = slice.(a) in
            if t.frozen.(i) <> t.stamp then begin
              t.f_rate.(i) <- !cum;
              freeze t i;
              decr active
            end
          done
        end
      done;
      (* ... and whole cap classes that reached their bound. *)
      let continue = ref true in
      while !continue do
        while !cap_ptr < t.n_caps && t.cap_count.(!cap_ptr) = 0 do
          incr cap_ptr
        done;
        if
          !cap_ptr < t.n_caps
          && t.caps.(!cap_ptr) -. !cum <= eps_of t.caps.(!cap_ptr)
        then
          for m = 0 to nf - 1 do
            let i = t.comp_flows.(m) in
            if t.class_of.(i) = !cap_ptr && t.frozen.(i) <> t.stamp then begin
              t.f_rate.(i) <- !cum;
              freeze t i;
              decr active
            end
          done
        else continue := false
      done
    done

  (* --- refresh ----------------------------------------------------------- *)

  let refresh t =
    if t.changed then begin
      t.changed <- false;
      t.refreshes <- t.refreshes + 1;
      (* flow_mark doubles as the "solved this refresh" marker. *)
      t.stamp <- t.stamp + 1;
      for i = 0 to t.high - 1 do
        if
          t.f_alive.(i)
          && Array.length t.f_links.(i) > 0
          && t.flow_mark.(i) <> t.stamp
        then begin
          collect_component t i;
          solve_component t
        end
      done
    end

  let publish t =
    let flush counter total pub =
      let d = total - pub in
      if d > 0 then Metrics.add counter d;
      total
    in
    t.pub_refreshes <- flush Instr.maxmin_full_refreshes t.refreshes t.pub_refreshes;
    t.pub_comp <- flush Instr.maxmin_component_solves t.component_solves t.pub_comp;
    t.pub_rounds <- flush Instr.maxmin_inc_iterations t.rounds t.pub_rounds;
    t.pub_solved <- flush Instr.maxmin_dirty_flows t.solved_flows t.pub_solved
end
