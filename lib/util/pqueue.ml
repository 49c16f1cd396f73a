type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }

let size q = q.len
let is_empty q = q.len = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow q e =
  let cap = Array.length q.data in
  if q.len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nd = Array.make ncap e in
    Array.blit q.data 0 nd 0 q.len;
    q.data <- nd
  end

let push q prio value =
  let e = { prio; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q e;
  (* Sift up. *)
  let i = ref q.len in
  q.len <- q.len + 1;
  let d = q.data in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less e d.(parent) then begin
      d.(!i) <- d.(parent);
      i := parent
    end
    else continue := false
  done;
  d.(!i) <- e

let min_prio q = if q.len = 0 then infinity else q.data.(0).prio

let pop q =
  if q.len = 0 then None
  else begin
    let top = q.data.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      let e = q.data.(q.len) in
      (* Sift down. *)
      let d = q.data in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        let cur = ref e in
        if l < q.len && less d.(l) !cur then (smallest := l; cur := d.(l));
        if r < q.len && less d.(r) !cur then smallest := r;
        if !smallest = !i then continue := false
        else begin
          d.(!i) <- d.(!smallest);
          i := !smallest
        end
      done;
      d.(!i) <- e
    end;
    Some (top.prio, top.value)
  end

let clear q =
  q.len <- 0;
  q.next_seq <- 0
