type result = {
  outcome : Machine.Cpu.outcome;
  outputs : int list;
  cycles : int;
  retired : int;
}

let of_cpu outcome (cpu : Machine.Cpu.t) =
  {
    outcome;
    outputs = Machine.Cpu.outputs cpu;
    cycles = cpu.cycles;
    retired = cpu.retired;
  }

let native ?fuel img =
  let cpu = Machine.Cpu.of_image img in
  let outcome = Machine.Cpu.run ?fuel cpu in
  of_cpu outcome cpu

let cached ?fuel cfg img =
  let ctrl = Controller.create cfg img in
  let outcome = Controller.run ?fuel ctrl in
  (of_cpu outcome ctrl.cpu, ctrl)

let slowdown ~(native : result) ~(cached : result) =
  if native.cycles = 0 then nan
  else float_of_int cached.cycles /. float_of_int native.cycles

type status =
  | Finished of Machine.Cpu.outcome
  | Unavailable of { vaddr : int; attempts : int }
  | Tcache_too_small
  | Chunk_too_large of int

let status_of run =
  match run () with
  | outcome -> Finished outcome
  | exception Controller.Chunk_unavailable { vaddr; attempts } ->
    Unavailable { vaddr; attempts }
  | exception Controller.Tcache_too_small -> Tcache_too_small
  | exception Controller.Chunk_too_large vaddr -> Chunk_too_large vaddr

type robust = {
  status : status;
  outputs : int list;
  cycles : int;
  retired : int;
}

let cached_robust ?fuel ?(prepare = fun (_ : Controller.t) -> ()) cfg img =
  let ctrl = Controller.create cfg img in
  prepare ctrl;
  let status = status_of (fun () -> Controller.run ?fuel ctrl) in
  ( {
      status;
      outputs = Machine.Cpu.outputs ctrl.cpu;
      cycles = ctrl.cpu.cycles;
      retired = ctrl.cpu.retired;
    },
    ctrl )

let pp_status ppf = function
  | Finished Machine.Cpu.Halted -> Format.pp_print_string ppf "halted"
  | Finished Machine.Cpu.Out_of_fuel ->
    Format.pp_print_string ppf "out of fuel"
  | Unavailable { vaddr; attempts } ->
    Format.fprintf ppf "chunk 0x%x unavailable after %d attempts" vaddr
      attempts
  | Tcache_too_small -> Format.pp_print_string ppf "tcache too small"
  | Chunk_too_large vaddr -> Format.fprintf ppf "chunk 0x%x too large" vaddr
