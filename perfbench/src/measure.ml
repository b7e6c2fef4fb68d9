(** Host-speed-normalised timing.

    Every timed unit is bracketed by yardstick readings ({!Yardstick}).
    The unit's wall time is scaled to the reference host by
    [nominal / mean(yardstick before, yardstick after)]. Consecutive units
    share a yardstick: the one after unit [i] is the one before unit
    [i + 1]. Code that does untimed work between units calls {!break}, so
    the next unit gets a fresh yardstick. The chain is driven only by the
    call sequence, never by a clock, so allocation and heap figures repeat
    exactly from run to run. *)

let now = Unix.gettimeofday

(** Scale factor from the two yardstick readings around a unit. *)
let factor ~nominal_ms ~before_ms ~after_ms = nominal_ms /. ((before_ms +. after_ms) /. 2.0)

(** A raw wall time scaled to the reference host. *)
let normalise ~nominal_ms ~raw ~before_ms ~after_ms =
  raw *. factor ~nominal_ms ~before_ms ~after_ms

type t = {
  mutable last_ms : float option;  (** Yardstick reading that ends the chain. *)
  mutable readings : float list;  (** Every yardstick reading, newest first. *)
}

let create () = { last_ms = None; readings = [] }
let nominal_ms = Yardstick.nominal_ms

let yardstick t =
  let ms = Yardstick.run_ms () in
  t.readings <- ms :: t.readings;
  ms

(** End the chain: the next unit starts with a fresh yardstick. *)
let break t = t.last_ms <- None

(** Run [f] as one timed unit; returns its result and normalised seconds. *)
let unit t f =
  let before_ms = match t.last_ms with Some ms -> ms | None -> yardstick t in
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 in
  let after_ms = yardstick t in
  t.last_ms <- Some after_ms;
  r, normalise ~nominal_ms ~raw ~before_ms ~after_ms

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Measure.median: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  match xs with
  | [] -> invalid_arg "Measure.geomean: empty"
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(** Run [f] [reps] times, each as a unit, keeping only the last result
    (earlier ones can be collected). Returns it with the median normalised
    time. *)
let repeated t ~reps f =
  let last = ref None and times = ref [] in
  for _ = 1 to reps do
    last := None;
    let r, s = unit t f in
    last := Some r;
    times := s :: !times
  done;
  break t;
  Option.get !last, median !times

(** Median yardstick reading of the run, in milliseconds. *)
let yardstick_ms t = median t.readings

(** Run-level scale factor, for per-layer times measured inside spans. *)
let run_factor t = nominal_ms /. yardstick_ms t

(** Bytes allocated by the process so far. Exact for a given binary and
    input. *)
let allocated_bytes () = Gc.allocated_bytes ()

(** Peak major-heap size so far, in MB. Each workload reads it after its
    warm-up and before [t]'s first yardstick run, so the yardstick's own
    allocation never counts in it. *)
let peak_heap_mb t =
  if t.readings <> [] then invalid_arg "Measure.peak_heap_mb: read after the yardstick ran";
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
