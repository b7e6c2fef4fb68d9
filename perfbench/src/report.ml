(** The metrics a run reports, and the final JSON line.

    {!end_to_end} and {!per_layer} list every metric by name and unit; they
    must equal the lists in BENCHMARK.json (the self-test checks this).
    Every workload prints every name: a per-layer metric whose layer the
    workload does not exercise reads 0. *)

let end_to_end =
  [ "setup_s", "s"; "items_per_s", "1/s"; "peak_heap_mb", "MB"; "sim_latency_ms", "ms" ]

let serve_rungs = 5

let per_layer =
  [
    "ir.parse_typecheck_ms", "ms";
    "ir.alloc_mb", "MB";
    "compiler.anf_ms", "ms";
    "compiler.lower_ms", "ms";
    "compiler.tune_ms", "ms";
    "compiler.kernels", "count";
    "compiler.lowered_defs", "count";
    "compiler.alloc_mb", "MB";
    "models.gen_weights_ms", "ms";
    "runtime.batch_ms", "ms";
    "runtime.alloc_mb_per_batch", "MB";
    "runtime.dfg_nodes", "count";
    "runtime.kernel_calls", "count";
    "runtime.nodes_per_launch", "ratio";
    "runtime.flushes", "count";
    "runtime.unbatched_ops", "count";
    "runtime.fingerprint_ms", "ms";
    "device.dfg_ms", "ms";
    "device.sched_ms", "ms";
    "device.mem_ms", "ms";
    "device.kernel_ms", "ms";
    "device.api_ms", "ms";
    "device.dynet_speedup", "x";
    "tensor.matmul_gflops_row", "GFLOP/s";
    "tensor.matmul_gflops_batch", "GFLOP/s";
    "tensor.values_ms_per_batch", "ms";
  ]
  @ List.init serve_rungs (fun i -> Printf.sprintf "serve.simulate_ms.rung%d" (i + 1), "ms")
  @ [
      "serve.loop_events", "count";
      "serve.events_per_s", "1/s";
      "serve.event_loop_ops_per_s", "1/s";
      "serve.admission_ops_per_s", "1/s";
      "serve.summarize_ms", "ms";
      "serve.mean_batch", "requests";
      "serve.mean_queue_ms", "ms";
      "serve.shed", "count";
      "serve.expired", "count";
      "serve.alloc_kb_per_request", "KB";
      "serve.p50_ms", "ms";
      "serve.goodput", "ratio";
      "serve.slo_rate_rps", "1/s";
      "chaos.simulate_ms", "ms";
      "chaos.trace_events", "count";
      "chaos.generate_ms", "ms";
      "chaos.check_ms", "ms";
      "chaos.violations", "count";
      "chaos.goodput", "ratio";
      "host.yardstick_ms", "ms";
      "host.trace_overhead", "ratio";
    ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let known name = List.mem_assoc name end_to_end || List.mem_assoc name per_layer

let set name v =
  if not (known name) then invalid_arg ("Report.set: unknown metric " ^ name);
  Hashtbl.replace values name v

let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)

(* --- Output checks --- *)

let attempted = ref 0
let failed = ref 0

(** Record one checked operation; a failure is counted, never raised. *)
let check ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "check failed: %s\n%!" what
  end

let json_number v =
  if not (Float.is_finite v) then invalid_arg "Report: non-finite metric value";
  Printf.sprintf "%.17g" v

(** The result line: the metrics of [names], by name and unit. *)
let result_line names =
  let metric (name, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (get name)) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed
    (String.concat ", " (List.map metric names))
