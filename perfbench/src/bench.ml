(** The benchmark command.

    {v
    bench.exe --workload W --seed N --seconds S --trace 0|1 [--quick]
    bench.exe golden --from A --to B [--kind values|accounting] [--out FILE]
    bench.exe self-test
    v}

    A run does a fixed amount of seeded work, set by [--seconds] alone
    (never by a clock), checks the outputs and prints, as its last line,
    one JSON object with the end-to-end metrics ([--trace 0]) or the
    per-layer metrics ([--trace 1]). See README.md. *)

let workloads = [ "offline-accounting"; "offline-values"; "serve-stream"; "chaos-campaign" ]

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  quick : bool;  (** Minimal work; for the self-test only. *)
}

(* Where a traced run writes its spans: run.py's build directory, inside
   the checkout and ignored by git. *)
let spans_dir = ".bench_build"

let setup_reps o = if o.quick then 1 else 5

(* Work per run, derived from [--seconds] alone. The constants put the
   timed phase near [seconds] on the reference host. *)
let scaled o ~per_second ~min = if o.quick then 1 else max min (int_of_float (per_second *. float_of_int o.seconds))

(** Run the workload once; returns items per normalised second. *)
let run_once o ms =
  let golden () = Golden.load Golden.default_path in
  match o.workload with
  | "offline-accounting" ->
    Offline.run_workload Offline.Accounting ~ms ~seed:o.seed
      ~rounds:(scaled o ~per_second:0.5 ~min:3) ~setup_reps:(setup_reps o) ~golden:(golden ())
  | "offline-values" ->
    Offline.run_workload Offline.Values ~ms ~seed:o.seed
      ~rounds:(scaled o ~per_second:0.3 ~min:3) ~setup_reps:(setup_reps o) ~golden:(golden ())
  | "serve-stream" ->
    Serving.run_workload ~ms ~seed:o.seed
      ~requests:(if o.quick then 2_000 else 150_000)
      ~reps:(scaled o ~per_second:0.5 ~min:3) ~setup_reps:(setup_reps o)
  | "chaos-campaign" ->
    Campaign_wl.run_workload ~ms ~seed:o.seed ~blocks:(scaled o ~per_second:6.0 ~min:8)
      ~block:(if o.quick then 4 else 50) ~setup_reps:(setup_reps o)
  | w -> invalid_arg ("unknown workload " ^ w)

(* Per-layer times from the spans, per set-up or per call, scaled to the
   reference host with the run's median yardstick. *)
let derive_layers o ms ~untraced ~traced =
  let f = Measure.run_factor ms in
  let reps = float_of_int (setup_reps o) in
  let per_setup name = Span.total ~phase:"setup" name *. f *. 1000.0 /. reps in
  let per_call ?phase name =
    let n = Span.count ?phase name in
    if n = 0 then 0.0 else Span.total ?phase name *. f *. 1000.0 /. float_of_int n
  in
  let set = Report.set in
  set "ir.parse_typecheck_ms" (per_setup "ir.parse_typecheck");
  set "ir.alloc_mb" (Span.alloc ~phase:"setup" "ir.parse_typecheck" /. 1e6 /. reps);
  set "compiler.anf_ms" (per_setup "compiler.anf");
  set "compiler.lower_ms" (per_setup "compiler.lower");
  set "compiler.tune_ms" (per_setup "compiler.tune");
  set "compiler.alloc_mb"
    (List.fold_left (fun acc n -> acc +. Span.alloc ~phase:"setup" n) 0.0
       [ "compiler.anf"; "compiler.lower"; "compiler.tune" ]
    /. 1e6 /. reps);
  set "models.gen_weights_ms" (per_setup "models.gen_weights");
  let offline = o.workload = "offline-accounting" || o.workload = "offline-values" in
  if offline then begin
    set "runtime.batch_ms" (per_call ~phase:"timed" "runtime.batch");
    let n = Span.count ~phase:"timed" "runtime.batch" in
    if n > 0 then
      set "runtime.alloc_mb_per_batch"
        (Span.alloc ~phase:"timed" "runtime.batch" /. 1e6 /. float_of_int n);
    set "runtime.fingerprint_ms" (per_call ~phase:"timed" "runtime.fingerprint")
  end;
  if o.workload = "offline-values" then
    set "tensor.values_ms_per_batch"
      (per_call ~phase:"timed" "tensor.values_batch" -. per_call ~phase:"timed" "runtime.batch");
  if o.workload = "serve-stream" then begin
    let sims = List.rev (Span.named ~phase:"timed" "serve.simulate") in
    let per_rung = List.length sims / Report.serve_rungs in
    List.iteri
      (fun i _ ->
        let mine = List.filteri (fun j _ -> j / per_rung = i) sims in
        set (Printf.sprintf "serve.simulate_ms.rung%d" (i + 1))
          (List.fold_left (fun acc s -> acc +. Span.dur s) 0.0 mine
          *. f *. 1000.0 /. float_of_int per_rung))
      (List.init Report.serve_rungs Fun.id);
    set "serve.summarize_ms" (per_call ~phase:"timed" "serve.summarize");
    let sim_s = Span.total ~phase:"timed" "serve.simulate" *. f in
    set "serve.events_per_s"
      (Report.get "serve.loop_events" *. float_of_int per_rung /. sim_s)
  end;
  if o.workload = "chaos-campaign" then begin
    set "chaos.simulate_ms" (per_call ~phase:"warmup" "chaos.simulate");
    set "chaos.check_ms" (per_call ~phase:"warmup" "chaos.check");
    set "chaos.generate_ms" (per_setup "chaos.generate")
  end;
  set "host.yardstick_ms" (Measure.yardstick_ms ms);
  set "host.trace_overhead" ((untraced /. traced) -. 1.0)

let run o =
  let untraced =
    if o.trace then begin
      (* The untraced pass first, for the tracing overhead; its metrics are
         then discarded. *)
      let ms = Measure.create () in
      let v = run_once o ms in
      Hashtbl.reset Report.values;
      Report.attempted := 0;
      Report.failed := 0;
      Span.enable ();
      Some v
    end
    else None
  in
  let ms = Measure.create () in
  let items = run_once o ms in
  Report.set "items_per_s" items;
  Printf.printf "yardstick median %.3f ms over %d readings (nominal %.3f ms)\n"
    (Measure.yardstick_ms ms) (List.length ms.Measure.readings) Measure.nominal_ms;
  match untraced with
  | None ->
    List.iter
      (fun (n, u) -> Printf.printf "  %-16s %14.6g %s\n" n (Report.get n) u)
      Report.end_to_end;
    print_endline (Report.result_line Report.end_to_end)
  | Some untraced ->
    derive_layers o ms ~untraced ~traced:items;
    (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.json" o.workload o.seed) in
    Span.write path;
    Printf.printf "spans written to %s\n" path;
    print_endline (Report.result_line Report.per_layer)

let golden ~kinds ~from ~upto ~out =
  let oc = open_out out in
  output_string oc
    "# Golden output digests: <kind> <seed> <model> <engine> <digest> <verdict>.\n\
     # Written by `bench.exe golden`; see golden.ml for the format.\n";
  List.iter
    (fun kind ->
      List.init (upto - from + 1) (fun i -> Offline.golden_entries kind ~seed:(from + i))
      |> List.concat |> Golden.collapse
      |> List.iter (fun e ->
             let l = Golden.to_line e in
             output_string oc (l ^ "\n");
             print_endline l))
    kinds;
  close_out oc

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 [--quick]\n\
    \       bench.exe golden --from A --to B [--kind values|accounting] [--out FILE]\n\
    \       bench.exe self-test";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name = Option.map int_of_string (opt name args) in
  match args with
  | "golden" :: _ -> (
    match int_opt "--from", int_opt "--to" with
    | Some from, Some upto ->
      let kinds =
        match opt "--kind" args with
        | Some "values" -> [ Offline.Values ]
        | Some "accounting" -> [ Offline.Accounting ]
        | _ -> [ Offline.Values; Offline.Accounting ]
      in
      golden ~kinds ~from ~upto ~out:(Option.value ~default:Golden.default_path (opt "--out" args))
    | _ -> usage ())
  | "self-test" :: _ -> Selftest.run ()
  | _ -> (
    match opt "--workload" args, int_opt "--seed", int_opt "--seconds", int_opt "--trace" with
    | Some workload, Some seed, Some seconds, Some trace
      when List.mem workload workloads && seconds > 0 && (trace = 0 || trace = 1) ->
      run
        {
          workload;
          seed;
          seconds;
          trace = trace = 1;
          quick = List.mem "--quick" args;
        }
    | _ -> usage ())
