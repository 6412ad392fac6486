let using key v f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key v;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f
