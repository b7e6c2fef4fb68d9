(** A frozen host-speed yardstick, in two parts.

    - The {b list} part: OCaml list allocation plus a sort. Its lists are
      long, and a sort round allocates more than the minor heap it runs
      with, so part of its allocation is promoted and collected by the
      major GC: it feels the state of the shared caches, memory and GC the
      way the benchmark's allocation-heavy code does.
    - The {b float} part: a floating-point multiply-add loop over a small
      array that stays in cache. It feels the core's compute speed the way
      the tensor kernels do.

    One reading runs both parts and takes the geometric mean of their
    times. Its time on the reference host is the nominal time. A reading
    right before and after a timed unit tells how fast the host is at that
    moment, so a wall time can be scaled to the reference host. Do not
    change this file: every normalised number ever recorded depends on
    it. *)

(* --- The list part --- *)

let elements = 100_000
let rounds = 2

(* The minor heap the list part runs with. *)
let minor_words = 4 * 1024 * 1024

(* Checksums of one run, used to prove the work was not optimised away or
   changed. *)
let list_checksum = 1_071_241_132

let lcg x = ((x * 1_103_515_245) + 12_345) land 0x3fff_ffff

let round seed =
  let l =
    List.init elements (fun _ ->
        seed := lcg !seed;
        !seed)
  in
  let sorted = List.sort Int.compare l in
  List.hd sorted + List.nth sorted (elements / 2)

let gc_params (g : Gc.control) = { g with Gc.minor_heap_size = minor_words; space_overhead = 120 }

(* Touch every page of the freshly allocated minor heap, untimed. *)
let touch_minor_heap () = ignore (Sys.opaque_identity (List.init (minor_words / 4) Fun.id))

(* Runs under its own GC parameters, set on entry and restored on exit,
   starting from an empty, already touched minor heap. *)
let list_ms () =
  let saved = Gc.get () in
  Gc.set (gc_params saved);
  touch_minor_heap ();
  let seed = ref 42 and sum = ref 0 and elapsed = ref 0.0 in
  Gc.minor ();
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    sum := (!sum + round seed) land 0xffff_ffff;
    elapsed := !elapsed +. (Unix.gettimeofday () -. t0)
  done;
  Gc.set saved;
  if !sum <> list_checksum then
    failwith (Printf.sprintf "yardstick list checksum %d, expected %d" !sum list_checksum);
  !elapsed *. 1000.0

(* --- The float part --- *)

let float_len = 4096
let float_sweeps = 6000
let float_checksum = 4707913817948887220L

(* Allocates nothing inside the timed loop. *)
let float_ms () =
  let a = Array.init float_len (fun i -> float_of_int (i mod 97) *. 0.01) in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0.0 in
  for _ = 1 to float_sweeps do
    for j = 0 to float_len - 1 do
      acc := !acc +. (a.(j) *. a.(float_len - 1 - j))
    done
  done;
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let bits = Int64.bits_of_float !acc in
  if bits <> float_checksum then
    failwith (Printf.sprintf "yardstick float checksum %LdL, expected %LdL" bits float_checksum);
  ms

(* Time of each part on the reference host (the 2-core VM this benchmark
   was built on, OCaml 5.1.1), in milliseconds. *)
let list_nominal_ms = 60.0
let float_nominal_ms = 24.0

(** A reading's time on the reference host, in milliseconds. *)
let nominal_ms = sqrt (list_nominal_ms *. float_nominal_ms)

(** One reading: both parts once; the geometric mean of their wall times,
    in milliseconds. *)
let run_ms () = sqrt (float_ms () *. list_ms ())
