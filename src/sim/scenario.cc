#include "src/sim/scenario.hh"

#include <sstream>
#include <stdexcept>

namespace dapper {

namespace detail {

std::string
configFingerprint(const SysConfig &c)
{
    std::ostringstream os;
    os.precision(17);
    os << c.numCores << '|' << c.coreWidth << '|' << c.robEntries << '|'
       << c.coreMshrs << '|' << c.llcBytes << '|' << c.llcWays << '|'
       << c.lineBytes << '|' << c.llcHitLatency << '|' << c.channels
       << '|' << c.ranksPerChannel << '|' << c.bankGroups << '|'
       << c.banksPerGroup << '|' << c.rowsPerBank << '|' << c.rowBytes
       << '|' << c.tRCDns << '|' << c.tRPns << '|' << c.tCLns << '|'
       << c.tRCns << '|' << c.tRASns << '|' << c.tRRDSns << '|'
       << c.tRRDLns << '|' << c.tWRns << '|' << c.tRFCns << '|'
       << c.tREFIns << '|' << c.tBLns << '|' << c.tFAWns << '|'
       << c.tREFWms << '|' << c.timeScale << '|' << c.vrrNs << '|'
       << c.rfmSbNs << '|' << c.drfmSbNs << '|' << c.bulkRefreshRankMs
       << '|' << c.bulkRefreshChannelMs << '|' << c.blastRadius << '|'
       << static_cast<int>(c.mitigationCmd) << '|' << c.nRH << '|'
       << c.rowGroupSize << '|' << c.dapperSResetUs << '|' << c.seed;
    return os.str();
}

} // namespace detail

Scenario::Scenario()
    : tracker_(&TrackerRegistry::instance().at("none")),
      attack_(&AttackRegistry::instance().at("none"))
{
}

Scenario &
Scenario::workload(std::string name)
{
    workload_ = std::move(name);
    workloads_.clear();
    return *this;
}

Scenario &
Scenario::workloads(const std::vector<std::string> &names)
{
    if (names.empty())
        throw std::invalid_argument(
            "workloads() needs at least one name");
    if (names.size() == 1)
        return workload(names.front());
    std::string joined;
    for (const std::string &name : names) {
        if (!joined.empty())
            joined += '+';
        joined += name;
    }
    workload_ = std::move(joined);
    workloads_ = names;
    return *this;
}

std::vector<std::string>
Scenario::workloadList() const
{
    if (workloads_.empty())
        return {workload_};
    return workloads_;
}

Scenario &
Scenario::tracker(const std::string &name)
{
    tracker_ = &TrackerRegistry::instance().at(name);
    return *this;
}

Scenario &
Scenario::tracker(const TrackerInfo &info)
{
    tracker_ = &info;
    return *this;
}

Scenario &
Scenario::attack(const std::string &name)
{
    attack_ = &AttackRegistry::instance().at(name);
    return *this;
}

Scenario &
Scenario::attack(const AttackInfo &info)
{
    attack_ = &info;
    return *this;
}

Scenario &
Scenario::baseline(Baseline b)
{
    baseline_ = b;
    return *this;
}

Scenario &
Scenario::horizon(Tick ticks)
{
    horizon_ = ticks;
    return *this;
}

Scenario &
Scenario::windows(int n)
{
    if (n < 1)
        throw std::invalid_argument("windows must be >= 1");
    windows_ = n;
    return *this;
}

Scenario &
Scenario::config(const SysConfig &cfg)
{
    cfg_ = cfg;
    return *this;
}

Scenario &
Scenario::nRH(int n)
{
    cfg_.nRH = n;
    return *this;
}

Scenario &
Scenario::timeScale(double s)
{
    cfg_.timeScale = s;
    return *this;
}

Scenario &
Scenario::seed(std::uint64_t s)
{
    cfg_.seed = s;
    return *this;
}

Scenario &
Scenario::tweak(const std::function<void(SysConfig &)> &fn)
{
    fn(cfg_);
    return *this;
}

Scenario &
Scenario::label(std::string text)
{
    label_ = std::move(text);
    return *this;
}

Tick
Scenario::effectiveHorizon() const
{
    if (horizon_ != 0)
        return horizon_;
    return static_cast<Tick>(windows_) * cfg_.tREFW();
}

std::string
Scenario::fingerprint() const
{
    std::ostringstream os;
    os << "cell|" << workload_ << '|' << attack_->name << '|'
       << tracker_->name << '|' << static_cast<int>(baseline_) << '|'
       << effectiveHorizon() << '|'
       << detail::configFingerprint(cfg_);
    return os.str();
}

ScenarioGrid::ScenarioGrid(Scenario base) : base_(std::move(base)) {}

ScenarioGrid &
ScenarioGrid::axis(std::vector<AxisValue> values)
{
    if (values.empty())
        throw std::invalid_argument("grid axis must not be empty");
    axes_.push_back(std::move(values));
    return *this;
}

ScenarioGrid &
ScenarioGrid::workloads(const std::vector<std::string> &names)
{
    std::vector<AxisValue> values;
    for (const std::string &name : names)
        values.emplace_back(name, [name](Scenario &s) {
            s.workload(name);
        });
    return axis(std::move(values));
}

ScenarioGrid &
ScenarioGrid::workloadSets(
    const std::vector<std::vector<std::string>> &sets)
{
    std::vector<AxisValue> values;
    for (const std::vector<std::string> &set : sets) {
        // Apply through a scratch scenario eagerly so an empty set
        // fails here, and to reuse the canonical '+'-join as the label.
        Scenario probe;
        probe.workloads(set);
        values.emplace_back(probe.workloadName(), [set](Scenario &s) {
            s.workloads(set);
        });
    }
    return axis(std::move(values));
}

ScenarioGrid &
ScenarioGrid::trackers(const std::vector<std::string> &names)
{
    std::vector<AxisValue> values;
    for (const std::string &name : names) {
        // Resolve eagerly so a typo fails at grid construction.
        const TrackerInfo &info = TrackerRegistry::instance().at(name);
        values.emplace_back(info.displayName, [&info](Scenario &s) {
            s.tracker(info);
        });
    }
    return axis(std::move(values));
}

ScenarioGrid &
ScenarioGrid::attacks(const std::vector<std::string> &names)
{
    std::vector<AxisValue> values;
    for (const std::string &name : names) {
        const AttackInfo &info = AttackRegistry::instance().at(name);
        values.emplace_back(info.name, [&info](Scenario &s) {
            s.attack(info);
        });
    }
    return axis(std::move(values));
}

ScenarioGrid &
ScenarioGrid::nRH(const std::vector<int> &thresholds)
{
    std::vector<AxisValue> values;
    for (const int n : thresholds)
        values.emplace_back("nrh=" + std::to_string(n), [n](Scenario &s) {
            s.nRH(n);
        });
    return axis(std::move(values));
}

ScenarioGrid &
ScenarioGrid::seeds(int n)
{
    if (n < 1)
        throw std::invalid_argument("seeds axis needs n >= 1");
    std::vector<AxisValue> values;
    for (int k = 0; k < n; ++k)
        values.emplace_back("seed=" + std::to_string(k),
                            [k](Scenario &s) {
                                s.seed(s.configRef().seed +
                                       static_cast<std::uint64_t>(k));
                            });
    return axis(std::move(values));
}

ScenarioGrid &
ScenarioGrid::baselines(const std::vector<Baseline> &baselines)
{
    std::vector<AxisValue> values;
    for (const Baseline b : baselines) {
        const char *name = b == Baseline::Raw         ? "raw"
                           : b == Baseline::NoAttack  ? "vs-idle"
                                                      : "vs-attack";
        values.emplace_back(name, [b](Scenario &s) { s.baseline(b); });
    }
    return axis(std::move(values));
}

ScenarioGrid &
ScenarioGrid::cells(const std::vector<ScenarioCell> &cells)
{
    std::vector<AxisValue> values;
    for (const ScenarioCell &cell : cells) {
        // Resolve eagerly; empty fields leave the scenario untouched.
        const TrackerInfo *tracker =
            cell.tracker.empty()
                ? nullptr
                : &TrackerRegistry::instance().at(cell.tracker);
        const AttackInfo *attack =
            cell.attack.empty()
                ? nullptr
                : &AttackRegistry::instance().at(cell.attack);
        const std::optional<Baseline> baseline = cell.baseline;
        values.emplace_back(cell.label,
                            [tracker, attack, baseline](Scenario &s) {
                                if (tracker != nullptr)
                                    s.tracker(*tracker);
                                if (attack != nullptr)
                                    s.attack(*attack);
                                if (baseline)
                                    s.baseline(*baseline);
                            });
    }
    return axis(std::move(values));
}

std::size_t
ScenarioGrid::size() const
{
    std::size_t n = 1;
    for (const auto &axis : axes_)
        n *= axis.size();
    return n;
}

std::size_t
ScenarioGrid::indexOf(const std::vector<std::size_t> &coords) const
{
    if (coords.size() != axes_.size())
        throw std::invalid_argument("indexOf: wrong coordinate count");
    std::size_t index = 0;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
        if (coords[a] >= axes_[a].size())
            throw std::out_of_range("indexOf: coordinate out of range");
        index = index * axes_[a].size() + coords[a];
    }
    return index;
}

std::vector<Scenario>
ScenarioGrid::expand() const
{
    std::vector<Scenario> out;
    out.reserve(size());
    std::vector<std::size_t> coords(axes_.size(), 0);
    for (std::size_t i = 0; i < size(); ++i) {
        // Decompose i into mixed-radix coordinates, axis 0 outermost.
        std::size_t rest = i;
        for (std::size_t a = axes_.size(); a-- > 0;) {
            coords[a] = rest % axes_[a].size();
            rest /= axes_[a].size();
        }
        Scenario s = base_;
        std::string label = s.labelText();
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const AxisValue &value = axes_[a][coords[a]];
            value.second(s);
            if (!value.first.empty()) {
                if (!label.empty())
                    label += '/';
                label += value.first;
            }
        }
        s.label(std::move(label));
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace dapper
