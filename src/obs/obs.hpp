#ifndef SICMAC_OBS_OBS_HPP
#define SICMAC_OBS_OBS_HPP

/// \file obs.hpp
/// Umbrella header for the sic::obs observability layer: metrics registry,
/// Chrome-trace sink, leveled logger, and RAII timing helpers. See
/// DESIGN.md "Observability layer" for the zero-overhead-when-disabled
/// contract all of them share.

#include "obs/build_info.hpp"       // IWYU pragma: export
#include "obs/context.hpp"          // IWYU pragma: export
#include "obs/flight_recorder.hpp"  // IWYU pragma: export
#include "obs/logger.hpp"           // IWYU pragma: export
#include "obs/metrics.hpp"          // IWYU pragma: export
#include "obs/scoped_timer.hpp"     // IWYU pragma: export
#include "obs/timeseries.hpp"       // IWYU pragma: export
#include "obs/trace_sink.hpp"       // IWYU pragma: export

#endif  // SICMAC_OBS_OBS_HPP
