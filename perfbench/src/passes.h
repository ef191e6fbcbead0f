// The four ways the benchmark drives a workload. Untraced passes go through
// the system's own entry points (PrivApproxSystem, or the deploy daemons
// plus FleetDriver) and give the end-to-end metrics. Traced passes compose
// the same components from their public constructors and drive them in the
// canonical sequential order FleetDriver uses — answer in client-id order,
// hand each lane's shares to the proxies, forward on every proxy, drain the
// aggregator, fire windows, take the results — with a span around every
// call, and give the per-layer metrics.
//
// Traced passes run one session, on the run's seed. Every session feeds its
// clients from its own ClientStreams and takes the exact counts in
// DriveEpochs, outside the timed region.

#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include "common.h"
#include "tracer.h"

namespace perfbench {

// PrivApproxSystem in streaming mode with the workload's worker threads,
// paced by a SetupPacer.
PassResult RunSystemPass(const Workload& workload, const Options& options);

// Broker + InProcessBus + Client + Proxy + Aggregator, sequential.
PassResult RunComposedPass(const Workload& workload, const Options& options,
                           Tracer& tracer);

// Two ProxyDaemons and one AggregatorDaemon on loopback ephemeral ports,
// driven by a FleetDriver, paced by a SetupPacer.
PassResult RunFleetPass(const Workload& workload, const Options& options);

// Fresh daemons driven by the benchmark's own TcpBusClients: Produce for
// the shares, control verbs for everything else.
PassResult RunSocketTracedPass(const Workload& workload,
                               const Options& options, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PASSES_H_
