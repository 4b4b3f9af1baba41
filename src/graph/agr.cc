/**
 * @file
 * `.agr` printer and parser.
 */

#include "graph/agr.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "common/error.hh"
#include "runtime/perf_stats.hh"

namespace ascend {
namespace graph {

namespace {

/** %.17g: enough digits that strtod restores the exact double. */
std::string
doubleToken(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char *
actToken(model::ActKind a)
{
    switch (a) {
      case model::ActKind::Relu:    return "relu";
      case model::ActKind::Relu6:   return "relu6";
      case model::ActKind::Gelu:    return "gelu";
      case model::ActKind::Sigmoid: return "sigmoid";
      case model::ActKind::Swish:   return "swish";
    }
    return "?";
}

bool
parseAct(const std::string &tok, model::ActKind &out)
{
    using model::ActKind;
    static const std::pair<const char *, ActKind> table[] = {
        {"relu", ActKind::Relu},       {"relu6", ActKind::Relu6},
        {"gelu", ActKind::Gelu},       {"sigmoid", ActKind::Sigmoid},
        {"swish", ActKind::Swish},
    };
    for (const auto &[name, kind] : table)
        if (tok == name) {
            out = kind;
            return true;
        }
    return false;
}

bool
parseDtype(const std::string &tok, DataType &out)
{
    static const DataType all[] = {DataType::Int4, DataType::Int8,
                                   DataType::Fp16, DataType::Int32,
                                   DataType::Fp32};
    for (const DataType dt : all)
        if (tok == toString(dt)) {
            out = dt;
            return true;
        }
    return false;
}

bool
parseLayerKind(const std::string &tok, model::LayerKind &out)
{
    using model::LayerKind;
    static const LayerKind all[] = {
        LayerKind::Conv2d,     LayerKind::DepthwiseConv2d,
        LayerKind::Linear,     LayerKind::BatchedMatmul,
        LayerKind::Pool2d,     LayerKind::BatchNorm,
        LayerKind::LayerNorm,  LayerKind::Activation,
        LayerKind::Softmax,    LayerKind::Elementwise,
        LayerKind::CvOp,
    };
    for (const LayerKind k : all)
        if (tok == toString(k)) {
            out = k;
            return true;
        }
    return false;
}

/** Append "key=value" when @p value differs from @p dflt. */
template <typename T>
void
putKey(std::string &out, const char *key, T value, T dflt)
{
    if (value == dflt)
        return;
    out += ' ';
    out += key;
    out += '=';
    if constexpr (std::is_floating_point_v<T>)
        out += doubleToken(value);
    else
        out += std::to_string(value);
}

/** Every fingerprinted layer field, keyed (kind is the op token). */
std::string
layerKeys(const model::Layer &l)
{
    const model::Layer d; // field defaults
    std::string s;
    if (l.dtype != d.dtype) {
        s += " dt=";
        s += toString(l.dtype);
    }
    putKey(s, "b", l.batch, d.batch);
    putKey(s, "ic", l.inC, d.inC);
    putKey(s, "oc", l.outC, d.outC);
    putKey(s, "ih", l.inH, d.inH);
    putKey(s, "iw", l.inW, d.inW);
    putKey(s, "kh", l.kernelH, d.kernelH);
    putKey(s, "kw", l.kernelW, d.kernelW);
    putKey(s, "sh", l.strideH, d.strideH);
    putKey(s, "sw", l.strideW, d.strideW);
    putKey(s, "ph", l.padH, d.padH);
    putKey(s, "pw", l.padW, d.padW);
    putKey(s, "m", l.gemmM, d.gemmM);
    putKey(s, "k", l.gemmK, d.gemmK);
    putKey(s, "n", l.gemmN, d.gemmN);
    putKey(s, "cnt", l.matmulCount, d.matmulCount);
    putKey(s, "el", l.elems, d.elems);
    putKey(s, "rl", l.rowLen, d.rowLen);
    putKey(s, "cvp", l.cvPasses, d.cvPasses);
    putKey(s, "fep", l.fusedEvictPasses, d.fusedEvictPasses);
    if (l.act != d.act) {
        s += " act=";
        s += actToken(l.act);
    }
    putKey(s, "ibo", l.inputBytesOverride, d.inputBytesOverride);
    putKey(s, "obo", l.outputBytesOverride, d.outputBytesOverride);
    return s;
}

struct ParseCursor
{
    const std::string &text;
    std::size_t pos = 0;
    unsigned lineNo = 0;
};

[[noreturn]] void
parseFail(unsigned line_no, const char *what)
{
    throwError(ErrorCode::ConfigParse, "agr line %u: %s", line_no,
               what);
}

/** Next non-empty, non-comment line split into tokens. */
bool
nextLine(ParseCursor &cur, std::vector<std::string> &tokens)
{
    while (cur.pos < cur.text.size()) {
        const std::size_t eol = cur.text.find('\n', cur.pos);
        const std::size_t end =
            eol == std::string::npos ? cur.text.size() : eol;
        std::string line = cur.text.substr(cur.pos, end - cur.pos);
        cur.pos = end + 1;
        ++cur.lineNo;
        tokens.clear();
        std::istringstream ss(line);
        std::string tok;
        while (ss >> tok)
            tokens.push_back(tok);
        if (tokens.empty() || tokens[0][0] == '#')
            continue;
        return true;
    }
    return false;
}

std::uint64_t
parseU64(const std::string &tok, unsigned line_no)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0')
        parseFail(line_no, "expected an unsigned integer");
    return v;
}

double
parseF64(const std::string &tok, unsigned line_no)
{
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0')
        parseFail(line_no, "expected a number");
    return v;
}

/** Split "a,b,c" on commas (no empty fields allowed). */
std::vector<std::string>
splitList(const std::string &tok, unsigned line_no)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= tok.size()) {
        const std::size_t comma = tok.find(',', at);
        const std::size_t end =
            comma == std::string::npos ? tok.size() : comma;
        if (end == at)
            parseFail(line_no, "empty entry in a tensor list");
        out.push_back(tok.substr(at, end - at));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    return out;
}

void
applyLayerKey(model::Layer &l, const std::string &key,
              const std::string &value, unsigned line_no)
{
    auto u = [&] { return parseU64(value, line_no); };
    if (key == "dt") {
        if (!parseDtype(value, l.dtype))
            parseFail(line_no, "unknown dtype");
    } else if (key == "b") {
        l.batch = unsigned(u());
    } else if (key == "ic") {
        l.inC = unsigned(u());
    } else if (key == "oc") {
        l.outC = unsigned(u());
    } else if (key == "ih") {
        l.inH = unsigned(u());
    } else if (key == "iw") {
        l.inW = unsigned(u());
    } else if (key == "kh") {
        l.kernelH = unsigned(u());
    } else if (key == "kw") {
        l.kernelW = unsigned(u());
    } else if (key == "sh") {
        l.strideH = unsigned(u());
    } else if (key == "sw") {
        l.strideW = unsigned(u());
    } else if (key == "ph") {
        l.padH = unsigned(u());
    } else if (key == "pw") {
        l.padW = unsigned(u());
    } else if (key == "m") {
        l.gemmM = u();
    } else if (key == "k") {
        l.gemmK = u();
    } else if (key == "n") {
        l.gemmN = u();
    } else if (key == "cnt") {
        l.matmulCount = u();
    } else if (key == "el") {
        l.elems = u();
    } else if (key == "rl") {
        l.rowLen = u();
    } else if (key == "cvp") {
        l.cvPasses = parseF64(value, line_no);
    } else if (key == "fep") {
        l.fusedEvictPasses = parseF64(value, line_no);
    } else if (key == "act") {
        if (!parseAct(value, l.act))
            parseFail(line_no, "unknown activation");
    } else if (key == "ibo") {
        l.inputBytesOverride = u();
    } else if (key == "obo") {
        l.outputBytesOverride = u();
    } else {
        parseFail(line_no, "unknown layer key");
    }
}

} // anonymous namespace

std::string
printAgr(const Graph &g)
{
    std::string out = "agr 1\n";
    out += "graph " + g.name + "\n";
    for (const Tensor &t : g.tensors) {
        out += "tensor " + t.name + ' ' + std::to_string(t.elems) +
               ' ' + toString(t.dtype);
        if (t.producer < 0)
            out += " input";
        else
            out += " from " + std::to_string(t.producer) + '.' +
                   std::to_string(t.producerSlot);
        out += '\n';
    }
    for (const Node &n : g.nodes) {
        out += "node " + n.name + ' ';
        if (n.op == OpKind::Layer) {
            out += "layer ";
            out += toString(n.layer.kind);
        } else {
            out += toString(n.op);
        }
        out += " in ";
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                out += ',';
            out += g.tensors[n.inputs[i]].name;
        }
        if (n.op == OpKind::Layer)
            out += layerKeys(n.layer);
        out += '\n';
    }
    for (const TensorId t : g.outputs)
        out += "output " + g.tensors[t].name + '\n';
    out += "end\n";

    static runtime::Counter &prints = runtime::counter(
        "graph agr printed", runtime::CounterKind::Sum,
        runtime::Determinism::Deterministic);
    prints.charge(1);
    return out;
}

Graph
parseAgr(const std::string &text)
{
    ParseCursor cur{text};
    std::vector<std::string> tok;

    if (!nextLine(cur, tok) || tok.size() != 2 || tok[0] != "agr" ||
        tok[1] != "1")
        parseFail(cur.lineNo, "expected header 'agr 1'");
    if (!nextLine(cur, tok) || tok.size() != 2 || tok[0] != "graph")
        parseFail(cur.lineNo, "expected 'graph <name>'");

    Graph g;
    g.name = tok[1];
    std::unordered_map<std::string, TensorId> byName;
    bool sawEnd = false;

    while (nextLine(cur, tok)) {
        if (tok[0] == "end") {
            if (tok.size() != 1)
                parseFail(cur.lineNo, "trailing tokens after 'end'");
            sawEnd = true;
            break;
        }
        if (tok[0] == "tensor") {
            // tensor <name> <elems> <dtype> input|from <node>.<slot>
            if (tok.size() != 5 && tok.size() != 6)
                parseFail(cur.lineNo, "malformed tensor record");
            Tensor t;
            t.name = tok[1];
            t.elems = parseU64(tok[2], cur.lineNo);
            if (!parseDtype(tok[3], t.dtype))
                parseFail(cur.lineNo, "unknown dtype");
            if (tok.size() == 5 && tok[4] == "input") {
                t.producer = -1;
            } else if (tok.size() == 6 && tok[4] == "from") {
                const std::size_t dot = tok[5].find('.');
                if (dot == std::string::npos)
                    parseFail(cur.lineNo,
                              "expected '<node>.<slot>' after 'from'");
                t.producer = int(
                    parseU64(tok[5].substr(0, dot), cur.lineNo));
                t.producerSlot = unsigned(
                    parseU64(tok[5].substr(dot + 1), cur.lineNo));
            } else {
                parseFail(cur.lineNo,
                          "expected 'input' or 'from <node>.<slot>'");
            }
            if (!byName.emplace(t.name, TensorId(g.tensors.size()))
                     .second)
                parseFail(cur.lineNo, "duplicate tensor name");
            g.tensors.push_back(std::move(t));
        } else if (tok[0] == "node") {
            // node <name> <op>[ <kind>] in <list> [key=value ...]
            if (tok.size() < 5)
                parseFail(cur.lineNo, "malformed node record");
            Node n;
            n.name = tok[1];
            std::size_t at = 2;
            if (tok[at] == "layer") {
                n.op = OpKind::Layer;
                if (!parseLayerKind(tok[at + 1], n.layer.kind))
                    parseFail(cur.lineNo, "unknown layer kind");
                n.layer.name = n.name;
                at += 2;
            } else if (tok[at] == "add") {
                n.op = OpKind::ResidualAdd;
                ++at;
            } else if (tok[at] == "concat") {
                n.op = OpKind::Concat;
                ++at;
            } else if (tok[at] == "split") {
                n.op = OpKind::Split;
                ++at;
            } else {
                parseFail(cur.lineNo, "unknown node op");
            }
            if (at + 1 >= tok.size() || tok[at] != "in")
                parseFail(cur.lineNo, "expected 'in <tensor-list>'");
            for (const std::string &ref :
                 splitList(tok[at + 1], cur.lineNo)) {
                const auto it = byName.find(ref);
                if (it == byName.end())
                    parseFail(cur.lineNo,
                              "node consumes an undefined tensor");
                n.inputs.push_back(it->second);
            }
            at += 2;
            for (; at < tok.size(); ++at) {
                if (n.op != OpKind::Layer)
                    parseFail(cur.lineNo,
                              "keys are only valid on layer nodes");
                const std::size_t eq = tok[at].find('=');
                if (eq == std::string::npos || eq == 0)
                    parseFail(cur.lineNo, "expected key=value");
                applyLayerKey(n.layer, tok[at].substr(0, eq),
                              tok[at].substr(eq + 1), cur.lineNo);
            }
            g.nodes.push_back(std::move(n));
        } else if (tok[0] == "output") {
            if (tok.size() != 2)
                parseFail(cur.lineNo, "malformed output record");
            const auto it = byName.find(tok[1]);
            if (it == byName.end())
                parseFail(cur.lineNo, "output names an undefined tensor");
            g.outputs.push_back(it->second);
        } else {
            parseFail(cur.lineNo, "unknown record");
        }
    }
    if (!sawEnd)
        parseFail(cur.lineNo, "missing 'end'");

    // Derive node output lists from the producer back-references:
    // slot k of node n is the tensor claiming (n, k). validate()
    // re-checks the correspondence it just built, plus everything a
    // hand-corrupted file could get wrong.
    for (std::size_t ti = 0; ti < g.tensors.size(); ++ti) {
        const Tensor &t = g.tensors[ti];
        if (t.producer < 0)
            continue;
        if (std::size_t(t.producer) >= g.nodes.size())
            throwError(ErrorCode::GraphInvalid,
                       "tensor '%s': producer %d out of range",
                       t.name.c_str(), t.producer);
        auto &outs = g.nodes[std::size_t(t.producer)].outputs;
        if (outs.size() <= t.producerSlot)
            outs.resize(t.producerSlot + 1, TensorId(ti));
        outs[t.producerSlot] = TensorId(ti);
    }
    g.validate();

    static runtime::Counter &parses = runtime::counter(
        "graph agr parsed", runtime::CounterKind::Sum,
        runtime::Determinism::Deterministic);
    parses.charge(1);
    return g;
}

} // namespace graph
} // namespace ascend
