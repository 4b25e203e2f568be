#include "src/common/config.hpp"

namespace bowsim {

const char *
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::LRR: return "LRR";
      case SchedulerKind::GTO: return "GTO";
      case SchedulerKind::CAWA: return "CAWA";
      case SchedulerKind::TwoLevel: return "TwoLevel";
    }
    return "?";
}

const char *
toString(SpinDetect kind)
{
    switch (kind) {
      case SpinDetect::Oracle: return "oracle";
      case SpinDetect::Ddos: return "ddos";
    }
    return "?";
}

const char *
toString(HashKind kind)
{
    switch (kind) {
      case HashKind::Xor: return "XOR";
      case HashKind::Modulo: return "MODULO";
    }
    return "?";
}

const char *
toString(ExecMode mode)
{
    switch (mode) {
      case ExecMode::Cycle: return "cycle";
      case ExecMode::Functional: return "functional";
    }
    return "?";
}

bool
parseExecMode(const std::string &text, ExecMode *out)
{
    if (text == "cycle")
        *out = ExecMode::Cycle;
    else if (text == "functional")
        *out = ExecMode::Functional;
    else
        return false;
    return true;
}

GpuConfig
makeGtx480Config()
{
    GpuConfig cfg;
    cfg.name = "GTX480";
    cfg.numCores = 15;
    cfg.maxThreadsPerCore = 1536;
    cfg.numRegsPerCore = 32768;
    cfg.numSchedulersPerCore = 2;
    cfg.l1d = CacheConfig{16 * 1024, 4};
    cfg.l1Mshrs = 32;
    cfg.l2 = CacheConfig{64 * 1024, 8};
    cfg.numL2Banks = 6;
    cfg.atomicServicePeriod = 4;
    cfg.coreClockMhz = 700.0;
    return cfg;
}

GpuConfig
makeGtx1080TiConfig()
{
    GpuConfig cfg;
    cfg.name = "GTX1080Ti";
    cfg.numCores = 28;
    cfg.maxThreadsPerCore = 2048;
    cfg.numRegsPerCore = 65536;
    cfg.numSchedulersPerCore = 4;
    cfg.l1d = CacheConfig{48 * 1024, 6};
    cfg.l1Mshrs = 64;
    cfg.l2 = CacheConfig{128 * 1024, 16};
    cfg.numL2Banks = 11;
    cfg.atomicServicePeriod = 4;
    cfg.coreClockMhz = 1481.0;
    // Pascal's memory system is both faster and wider.
    cfg.l2HitLatency = 100;
    cfg.dramLatency = 180;
    cfg.dramServicePeriod = 2;
    return cfg;
}

}  // namespace bowsim
