(* A fixed reference computation that measures how fast the host is
   running right now, so that host-time metrics can be scaled to one
   host speed. Wall time on a shared host drifts by tens of percent
   over minutes as neighbours load the caches and memory; the benchmark
   times this kernel next to every [Network.run] and divides it out.

   The kernel is shaped like the simulator's event loop (a binary heap
   of pending events, a random read-modify-write of per-entity state
   outside the CPU caches, a few words of short-lived allocation per
   event) so that it slows down with the host the way the simulator
   does. It uses only the standard library: no change to the program
   under test can move it. *)

type t = { state : int array; key : int array; pay : int array }

let state_slots = 1 lsl 22 (* 32 MB of per-entity state *)
let pending = 1 lsl 15

(** [create ()] allocates the kernel's memory; [run] then only touches
    it, so page faults stay out of the timed loop. *)
let create () =
  {
    state = Array.make state_slots 0;
    key = Array.make pending 0;
    pay = Array.make pending 0;
  }

(** [run t ~events] dispatches [events] events at a constant pending
    depth and returns a checksum (to keep the work observable). *)
let run t ~events =
  let { state; key; pay } = t in
  let n = ref 0 in
  let push k p =
    let i = ref !n in
    incr n;
    while !i > 0 && key.((!i - 1) / 2) > k do
      let j = (!i - 1) / 2 in
      key.(!i) <- key.(j);
      pay.(!i) <- pay.(j);
      i := j
    done;
    key.(!i) <- k;
    pay.(!i) <- p
  in
  let pop () =
    let p = pay.(0) in
    decr n;
    let k = key.(!n) and q = pay.(!n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !n then sifting := false
      else begin
        let c = if l + 1 < !n && key.(l + 1) < key.(l) then l + 1 else l in
        if key.(c) < k then begin
          key.(!i) <- key.(c);
          pay.(!i) <- pay.(c);
          i := c
        end
        else sifting := false
      end
    done;
    key.(!i) <- k;
    pay.(!i) <- q;
    p
  in
  let x = ref 0x9E3779B9 in
  let rand () =
    x := ((!x * 0x2545F4914F6CDD1D) + 1) land max_int;
    !x lsr 20
  in
  for i = 0 to pending - 2 do
    push (rand () land 0xFFFF) i
  done;
  let recent = ref [] in
  for e = 1 to events do
    let now = key.(0) in
    let p = pop () in
    let s = ((p * 40503) + rand ()) land (state_slots - 1) in
    state.(s) <- state.(s) + p;
    recent := (s, now) :: (if e land 63 = 0 then [] else !recent);
    push (now + 1 + (rand () land 0xFFFF)) (state.(s) land 0xFFFF)
  done;
  List.length !recent + !n + state.(0)
