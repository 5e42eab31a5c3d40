// A net::Server on an ephemeral port for the net suites: run() on a
// background thread, stopped and joined on scope exit.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "net/server.hpp"

namespace gt::test {

class ScopedServer {
public:
    explicit ScopedServer(net::ServerOptions options) {
        const Status st = server_.start(options);
        EXPECT_TRUE(st.ok()) << st.to_string();
        thread_ = std::thread([this] {
            const Status run = server_.run();
            EXPECT_TRUE(run.ok()) << run.to_string();
        });
    }
    ~ScopedServer() {
        server_.stop();
        thread_.join();
    }
    ScopedServer(const ScopedServer&) = delete;
    ScopedServer& operator=(const ScopedServer&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept {
        return server_.port();
    }
    [[nodiscard]] net::Server& server() noexcept { return server_; }

private:
    net::Server server_;
    std::thread thread_;
};

}  // namespace gt::test
